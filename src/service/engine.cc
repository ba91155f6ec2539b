#include "engine.hh"

#include <chrono>

#include "charlib/runner.hh"
#include "service/requests.hh"
#include "util/logging.hh"
#include "util/serialize.hh"

namespace rowhammer::service
{

namespace
{

std::string
typeTag(MsgType type)
{
    switch (type) {
      case MsgType::Fig10:
        return "rhd-fig10";
      case MsgType::AttackSweep:
        return "rhd-attack-sweep";
      case MsgType::HcFirst:
        return "rhd-hcfirst";
      default:
        return "rhd-other";
    }
}

} // namespace

std::uint64_t
memoKey(MsgType type, const std::string &config_bytes)
{
    return util::fnv1a64(typeTag(type) + config_bytes);
}

Engine::Engine(EngineConfig config)
    : config_(std::move(config)), pool_(config_.threads)
{
    // The memo store's "config hash" stamps the daemon's result-cache
    // format, not a run description: bumping it invalidates every
    // cached reply at once. The exclusive lock is what keeps a second
    // daemon (or a bench pointed at the same directory) from
    // interleaving writes.
    const std::uint64_t format_id =
        util::fnv1a64("rhd-memo-format-v1");
    memo_ = std::make_unique<util::RunStore>(
        config_.storeDir + "/memo.rst", format_id, config_.io,
        /*exclusive=*/true);
    const std::size_t loaded = memo_->load();
    if (loaded > 0) {
        util::inform("rhd: memo store has " + std::to_string(loaded) +
                     " cached results");
    }
    if (memo_->quarantinedOnLoad()) {
        util::warn("rhd: memo store was corrupt and has been "
                   "quarantined; serving cold");
    }
}

Reply
Engine::handle(MsgType type, const std::string &payload)
{
    Reply reply;
    if (type == MsgType::Ping) {
        reply.status = Status::Ok;
        return reply;
    }
    if (type != MsgType::Fig10 && type != MsgType::AttackSweep &&
        type != MsgType::HcFirst) {
        reply.status = Status::UnsupportedType;
        reply.message = "request type not servable";
        return reply;
    }

    std::uint32_t deadline_ms = 0;
    std::string config_bytes;
    if (!decodeRequestPayload(payload, deadline_ms, config_bytes)) {
        reply.status = Status::MalformedRequest;
        reply.message = "request payload shorter than its deadline "
                        "prefix";
        return reply;
    }
    if (config_.maxDeadlineMs > 0 &&
        (deadline_ms == 0 || deadline_ms > config_.maxDeadlineMs)) {
        deadline_ms = config_.maxDeadlineMs;
    }

    // Memo hit: byte-identical to the reply that seeded the cache.
    const std::uint64_t key = memoKey(type, config_bytes);
    if (const std::string *cached = memo_->get(key)) {
        reply.status = Status::Ok;
        reply.cached = true;
        reply.result = *cached;
        return reply;
    }

    if (shuttingDown()) {
        reply.status = Status::ShuttingDown;
        reply.message = "daemon is draining; retry against the next "
                        "instance";
        return reply;
    }

    return compute(type, deadline_ms, config_bytes);
}

Reply
Engine::compute(MsgType type, std::uint32_t deadline_ms,
                const std::string &config_bytes)
{
    Reply reply;
    std::lock_guard<std::mutex> lock(computeMu_);

    // Re-probe under the lock: a concurrent identical request may have
    // just populated the memo while this one waited.
    const std::uint64_t key = memoKey(type, config_bytes);
    if (const std::string *cached = memo_->get(key)) {
        reply.status = Status::Ok;
        reply.cached = true;
        reply.result = *cached;
        return reply;
    }
    if (shuttingDown()) {
        reply.status = Status::ShuttingDown;
        reply.message = "daemon is draining";
        return reply;
    }

    pool_.setBatchDeadline(std::chrono::milliseconds(deadline_ms));
    try {
        switch (type) {
          case MsgType::Fig10: {
            Fig10Request req;
            if (!Fig10Request::decode(config_bytes, req)) {
                reply.status = Status::MalformedRequest;
                reply.message = "undecodable Fig10 run description";
                break;
            }
            req.config.pool = &pool_;
            req.config.io = config_.io;
            req.config.checkpointPath = config_.storeDir;
            core::ExperimentRunner runner(req.config);
            reply.result = encodeFig10Points(runner.sweep(req.hcFirsts));
            reply.status = Status::Ok;
            break;
          }
          case MsgType::AttackSweep: {
            AttackSweepRequest req;
            if (!AttackSweepRequest::decode(config_bytes, req)) {
                reply.status = Status::MalformedRequest;
                reply.message = "undecodable attack-sweep run "
                                "description";
                break;
            }
            req.config.pool = &pool_;
            req.config.io = config_.io;
            req.config.checkpointPath = config_.storeDir;
            reply.result = encodeSweepCells(attack::runSweep(req.config));
            reply.status = Status::Ok;
            break;
          }
          case MsgType::HcFirst: {
            HcFirstRequest req;
            if (!HcFirstRequest::decode(config_bytes, req)) {
                reply.status = Status::MalformedRequest;
                reply.message = "undecodable HCfirst run description";
                break;
            }
            charlib::RunnerOptions options;
            options.seed = req.seed;
            options.pool = &pool_;
            options.io = config_.io;
            options.checkpointPath = config_.storeDir;
            charlib::PopulationRunner runner(options);
            reply.result = encodeHcFirstResults(runner.measureHcFirst(
                req.chips, req.options, req.geometry));
            reply.status = Status::Ok;
            break;
          }
          default:
            reply.status = Status::UnsupportedType;
            break;
        }
    } catch (const util::BatchDeadlineExceeded &e) {
        reply.status = Status::DeadlineExceeded;
        reply.message = e.what();
    } catch (const util::BatchCancelled &e) {
        reply.status = Status::ShuttingDown;
        reply.message = "daemon began draining mid-compute; completed "
                        "shards are checkpointed and the next instance "
                        "resumes them";
    } catch (const std::exception &e) {
        reply.status = Status::InternalError;
        reply.message = e.what();
    }
    pool_.setBatchDeadline(std::chrono::milliseconds(0));

    if (reply.status == Status::Ok)
        memo_->put(key, reply.result);
    return reply;
}

} // namespace rowhammer::service
