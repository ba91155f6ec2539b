/**
 * @file
 * Workload `fuzz-ckpt`: an attack::Fuzzer campaign of 24 generations x
 * 32 patterns at the default activation budget, checkpointing to a
 * fresh util::RunStore on the checkout's disk, followed by a warm rerun
 * against the same store that must print the byte-identical log.
 *
 * The traced pass adds a campaign without checkpointing (the
 * checkpoint overhead is cold minus that) and routes the store's
 * filesystem calls through a timing util::Io (FuzzerConfig::io).
 */

#include <algorithm>
#include <filesystem>
#include <sstream>

#include "attack/fuzzer.hh"
#include "harness.hh"
#include "util/io.hh"
#include "util/run_store.hh"
#include "util/taskpool.hh"

namespace perfbench
{
namespace
{

using namespace rowhammer;

attack::FuzzerConfig
fuzzConfig(std::uint64_t seed)
{
    attack::FuzzerConfig config;
    config.generations = 24;
    config.population = 32;
    config.seed = seed;
    return config;
}

std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);
    return lines;
}

std::string
lineKey(std::size_t i)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "line %04zu", i);
    return buf;
}

/**
 * util::Io delegating to the real filesystem, counting and timing every
 * call. Each store rename completes one checkpointed session (one pool
 * job), so renames also feed the pool timeline, split into the
 * campaign's scoring batches by their known sizes.
 */
class TimingIo : public util::Io
{
  public:
    TimingIo(PoolTimeline &timeline, std::vector<long> batch_sizes)
        : timeline_(timeline), batchSizes_(std::move(batch_sizes))
    {
        timeline_.newBatch();
    }

    std::int64_t fsyncs = 0;
    std::int64_t renames = 0;
    std::int64_t bytesWritten = 0;
    double writeSeconds = 0.0;
    double fsyncSeconds = 0.0;
    double totalSeconds = 0.0;

    /** fn() with its host time added to totalSeconds. */
    template <typename Fn>
    auto
    timed(Fn &&fn)
    {
        const double t0 = wallNow();
        auto result = fn();
        const double dt = wallNow() - t0;
        std::lock_guard<std::mutex> lock(mu_);
        totalSeconds += dt;
        return result;
    }

    int
    openForWrite(const std::string &path) override
    {
        return timed([&] { return base().openForWrite(path); });
    }

    long
    write(int fd, const void *buf, std::size_t count) override
    {
        const double t0 = wallNow();
        const long n = base().write(fd, buf, count);
        const double dt = wallNow() - t0;
        std::lock_guard<std::mutex> lock(mu_);
        writeSeconds += dt;
        totalSeconds += dt;
        bytesWritten += n > 0 ? n : 0;
        return n;
    }

    bool
    fsyncFd(int fd) override
    {
        const double t0 = wallNow();
        const bool ok = base().fsyncFd(fd);
        const double dt = wallNow() - t0;
        std::lock_guard<std::mutex> lock(mu_);
        ++fsyncs;
        fsyncSeconds += dt;
        totalSeconds += dt;
        return ok;
    }

    bool
    closeFd(int fd) override
    {
        return timed([&] { return base().closeFd(fd); });
    }

    bool
    renameFile(const std::string &from, const std::string &to) override
    {
        const bool ok = timed([&] { return base().renameFile(from, to); });
        timeline_.jobDone();
        std::lock_guard<std::mutex> lock(mu_);
        ++renames;
        if (next_ < batchSizes_.size() && ++inBatch_ == batchSizes_[next_]) {
            ++next_;
            inBatch_ = 0;
            timeline_.newBatch();
        }
        return ok;
    }

    bool
    readFile(const std::string &path, std::string &out) override
    {
        return timed([&] { return base().readFile(path, out); });
    }

    bool
    makeDirs(const std::string &path) override
    {
        return timed([&] { return base().makeDirs(path); });
    }

    bool
    removeFile(const std::string &path) override
    {
        return timed([&] { return base().removeFile(path); });
    }

    bool
    fileExists(const std::string &path) override
    {
        return timed([&] { return base().fileExists(path); });
    }

    int
    openLockFile(const std::string &path) override
    {
        return timed([&] { return base().openLockFile(path); });
    }

    bool
    tryLockExclusive(int fd) override
    {
        return timed([&] { return base().tryLockExclusive(fd); });
    }

    bool
    truncateFd(int fd) override
    {
        return timed([&] { return base().truncateFd(fd); });
    }

    bool
    writeAllFd(int fd, const std::string &data) override
    {
        return timed([&] { return base().writeAllFd(fd, data); });
    }

  private:
    static util::Io &base() { return util::Io::system(); }

    PoolTimeline &timeline_;
    std::vector<long> batchSizes_;
    std::mutex mu_;
    std::size_t next_ = 0;
    long inBatch_ = 0;
};

class FuzzCkpt : public Workload
{
  public:
    explicit FuzzCkpt(const Options &options)
        : config_(fuzzConfig(options.seed)),
          storeDir_(options.workDir + "/fuzz-ckpt-store")
    {
    }

    void
    setUp() override
    {
        pool_ = std::make_unique<util::TaskPool>(poolWorkers());
        attack::FuzzerConfig config = config_;
        config.pool = pool_.get();
        config.checkpointPath = storeDir_;
        fuzzer_ = std::make_unique<attack::Fuzzer>(config);
    }

    void
    run() override
    {
        cold_ = campaign(*fuzzer_);
        warm_ = campaign(*fuzzer_);
    }

    void
    check(Units &units) override
    {
        const std::vector<std::string> cold = splitLines(cold_);
        const std::vector<std::string> warm = splitLines(warm_);
        const bool first = firstCold_.empty();
        // A line missing from either log, or from the reference or the
        // first repetition, fails like a differing one.
        const std::size_t lines = std::max({cold.size(), warm.size(),
                                            firstCold_.size(),
                                            units.referenceSize()});
        for (std::size_t i = 0; i < lines; ++i) {
            const bool have = cold_ != kThrew && i < cold.size();
            bool ok = have && units.matchesReference(lineKey(i), cold[i]);
            if (!first)
                ok = ok && i < firstCold_.size() && cold[i] == firstCold_[i];
            units.count(ok);
            units.count(have && i < warm.size() && warm[i] == cold[i]);
        }
        if (first)
            firstCold_ = cold;
    }

    void
    tearDown() override
    {
        fuzzer_.reset();
        pool_.reset();
        std::filesystem::remove_all(storeDir_);
    }

    void
    trace(Metrics &m, Units &units) override
    {
        attack::FuzzerConfig nockpt = config_;
        nockpt.pool = pool_.get();
        double t0 = wallNow();
        const std::string plain = campaign(attack::Fuzzer(nockpt));
        const double nockpt_s = wallNow() - t0;

        PoolTimeline timeline;
        TimingIo cold_io(timeline, batchSizes());
        attack::FuzzerConfig cold_config = config_;
        cold_config.pool = pool_.get();
        cold_config.checkpointPath = storeDir_;
        cold_config.io = &cold_io;
        const double cpu0 = cpuNow();
        t0 = wallNow();
        cold_ = campaign(attack::Fuzzer(cold_config));
        const double cold_s = wallNow() - t0;
        setPoolMetrics(m, cpuNow() - cpu0, cold_s, timeline.tailSeconds());

        std::size_t records = 0;
        {
            util::RunStore store(
                util::RunStore::pathInDir(storeDir_, config_.hash()),
                config_.hash());
            records = store.load();
        }

        PoolTimeline unused;
        TimingIo warm_io(unused, {});
        attack::FuzzerConfig warm_config = cold_config;
        warm_config.io = &warm_io;
        t0 = wallNow();
        warm_ = campaign(attack::Fuzzer(warm_config));
        const double warm_s = wallNow() - t0;

        check(units);
        const std::vector<std::string> cold = splitLines(cold_);
        const std::vector<std::string> lines = splitLines(plain);
        for (std::size_t i = 0; i < std::max(cold.size(), lines.size());
             ++i) {
            units.count(i < cold.size() && i < lines.size() &&
                        cold[i] == lines[i]);
        }

        const double recs = static_cast<double>(records);
        m.set("run_store.records", recs, "count");
        m.set("run_store.fsyncs", static_cast<double>(cold_io.fsyncs),
              "count");
        m.set("run_store.bytes_written",
              static_cast<double>(cold_io.bytesWritten), "B");
        m.set("run_store.bytes_per_record",
              recs > 0 ? static_cast<double>(cold_io.bytesWritten) / recs
                       : 0.0,
              "B");
        m.set("run_store.write_s", cold_io.writeSeconds, "s");
        m.set("run_store.fsync_s", cold_io.fsyncSeconds, "s");
        m.set("run_store.load_s", warm_io.totalSeconds, "s");
        m.set("run_store.checkpoint_overhead_s", cold_s - nockpt_s, "s");
        m.set("attack.sessions", static_cast<double>(cold_io.renames),
              "count");
        m.set("attack.campaign_cold_s", cold_s, "s");
        m.set("attack.campaign_warm_s", warm_s, "s");
        m.set("attack.campaign_nockpt_s", nockpt_s, "s");
    }

  private:
    static constexpr const char *kThrew = "<campaign threw>";

    static std::string
    campaign(const attack::Fuzzer &fuzzer)
    {
        try {
            return attack::renderCampaign(fuzzer.run());
        } catch (const std::exception &) {
            return kThrew;
        }
    }

    /** Scoring batches of a cold campaign, in sessions: the baselines,
     *  generation 0, then each bred generation (survivors are carried,
     *  not re-scored). */
    std::vector<long>
    batchSizes() const
    {
        const long chips = config_.chips;
        std::vector<long> sizes{
            static_cast<long>(config_.baselineNSides.size()) * chips,
            config_.population * chips};
        for (int g = 1; g < config_.generations; ++g)
            sizes.push_back((config_.population - config_.survivors) * chips);
        return sizes;
    }

    attack::FuzzerConfig config_;
    std::string storeDir_;
    std::unique_ptr<util::TaskPool> pool_;
    std::unique_ptr<attack::Fuzzer> fuzzer_;
    std::string cold_;
    std::string warm_;
    /** Cold log lines of the first repetition. */
    std::vector<std::string> firstCold_;
};

} // namespace

std::unique_ptr<Workload>
makeFuzzCkpt(const Options &options)
{
    return std::make_unique<FuzzCkpt>(options);
}

} // namespace perfbench
