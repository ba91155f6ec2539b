/**
 * @file
 * rhd — the campaign daemon. Owns THE util::TaskPool of the machine,
 * serves fig10 / attack-sweep / HCfirst queries over a Unix-domain
 * socket, memoizes results in an advisory-locked RunStore, and
 * checkpoints miss-path shards so a SIGKILL mid-campaign costs only
 * the in-flight shard.
 *
 * Knobs (environment):
 *   RH_SOCKET          socket path (default ./rhd.sock)
 *   RH_STORE_DIR       memo + shard-checkpoint directory
 *                      (default ./rhd-store)
 *   RH_THREADS         pool width (default: one per hardware thread)
 *   RH_MAX_PENDING     admitted requests before RetryLater shedding
 *                      (default 4)
 *   RH_IDLE_TIMEOUT_MS per-connection idle-read bound (default 30000)
 *   RH_MAX_DEADLINE_MS cap on client-requested compute deadlines
 *                      (default 0 = uncapped)
 *
 * SIGTERM/SIGINT drain gracefully: stop accepting, cancel the
 * in-flight batch (completed shards stay checkpointed), answer
 * in-flight requests ShuttingDown, flush the memo store, exit 0.
 */

#include <csignal>

#include "bench_common.hh"
#include "service/engine.hh"
#include "service/server.hh"

using namespace rowhammer;

namespace
{

service::Server *g_server = nullptr;

extern "C" void
onTerm(int)
{
    if (g_server != nullptr)
        g_server->requestShutdown(); // Async-signal-safe.
}

} // namespace

static int
run()
{
    service::EngineConfig engine_config;
    engine_config.storeDir =
        util::envString("RH_STORE_DIR", "rhd-store");
    engine_config.threads =
        static_cast<int>(util::envLong("RH_THREADS", 0));
    engine_config.maxDeadlineMs = static_cast<std::uint32_t>(
        util::envLong("RH_MAX_DEADLINE_MS", 0, 0, bench::kMaxDeadlineMs));
    service::Engine engine(engine_config);

    service::ServerConfig server_config;
    server_config.socketPath = util::envString("RH_SOCKET", "rhd.sock");
    server_config.maxPending =
        static_cast<int>(util::envLong("RH_MAX_PENDING", 4));
    server_config.idleReadTimeoutMs =
        util::envLong("RH_IDLE_TIMEOUT_MS", 30000);
    service::Server server(server_config, engine);

    g_server = &server;
    std::signal(SIGTERM, onTerm);
    std::signal(SIGINT, onTerm);
    std::signal(SIGPIPE, SIG_IGN); // A dead peer must not kill us.

    const int rc = server.run();
    g_server = nullptr;
    return rc;
}

int
main()
{
    return bench::guardedMain(run);
}
