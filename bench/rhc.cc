/**
 * @file
 * rhc — client for the rhd campaign daemon. Builds the SAME Figure 10
 * run description from the SAME RH_F10_* environment knobs as the
 * standalone fig10_mitigations bench (via fig10_common.hh), sends it
 * to the daemon, and renders the reply through the same table code —
 * so `rhc fig10` output matches the standalone bench byte-for-byte
 * from the run-shape line onward, cold or memo-served.
 *
 * Usage: rhc [fig10|ping]           (default fig10)
 *
 * Knobs (environment):
 *   RH_SOCKET           daemon socket path (default ./rhd.sock)
 *   RH_DEADLINE_MS      compute deadline sent with the request
 *                       (default 0 = daemon's cap, if any)
 *   RH_RHC_ATTEMPTS     retry budget incl. the first try (default 5)
 *   RH_RHC_BACKOFF_MS   base backoff, doubling per retry (default 100)
 *   RH_RHC_TIMEOUT_MS   per-read reply timeout (default 0 = wait;
 *                       campaign computes can take minutes)
 *   RH_F10_*            run description, as in fig10_mitigations
 *
 * Exit codes: 0 ok, 1 terminal daemon error, 2 gave up after retries
 * (daemon down or persistently shedding).
 */

#include <iostream>
#include <string>

#include "fig10_common.hh"
#include "service/client.hh"
#include "service/requests.hh"
#include "util/logging.hh"
#include "util/serialize.hh"

using namespace rowhammer;

static std::string g_command = "fig10";

static int
runCommand(const std::string &command)
{
    util::setVerbose(false);

    service::ClientOptions options;
    options.socketPath = util::envString("RH_SOCKET", "rhd.sock");
    options.maxAttempts =
        static_cast<int>(util::envLong("RH_RHC_ATTEMPTS", 5));
    options.baseBackoffMs = util::envLong("RH_RHC_BACKOFF_MS", 100);
    options.idleReadTimeoutMs = util::envLong("RH_RHC_TIMEOUT_MS", 0);

    if (command == "ping") {
        const auto result =
            service::call(options, service::MsgType::Ping, "");
        if (!result.ok) {
            std::cerr << "rhc: ping failed after " << result.attempts
                      << " attempt(s): " << result.error << "\n";
            return result.haveReply ? 1 : 2;
        }
        std::cout << "pong (attempt " << result.attempts << ")\n";
        return 0;
    }
    if (command != "fig10") {
        std::cerr << "rhc: unknown command '" << command
                  << "' (expected fig10 or ping)\n";
        return 1;
    }

    service::Fig10Request request;
    request.config = bench::fig10ConfigFromEnv();
    request.hcFirsts = bench::fig10HcFirsts();
    const auto deadline_ms = static_cast<std::uint32_t>(
        util::envLong("RH_DEADLINE_MS", 0, 0, bench::kMaxDeadlineMs));

    const auto result = service::call(
        options, service::MsgType::Fig10,
        service::encodeRequestPayload(deadline_ms, util::encode(request)));
    if (!result.ok) {
        std::cerr << "rhc: fig10 query failed after " << result.attempts
                  << " attempt(s): " << result.error << "\n";
        return result.haveReply ? 1 : 2;
    }

    std::vector<core::SweepPoint> points;
    if (!util::decode(result.reply.result, points)) {
        std::cerr << "rhc: daemon reply did not decode as Figure 10 "
                     "points\n";
        return 1;
    }

    // Provenance to stderr so stdout stays byte-comparable with the
    // standalone bench.
    std::cerr << "rhc: " << (result.reply.cached ? "memo-served"
                                                 : "computed")
              << " in " << result.attempts << " attempt(s)\n";

    bench::printFig10RunShape(request.config, std::cout);
    bench::renderFigure10(points, std::cout);
    return 0;
}

static int
run()
{
    return runCommand(g_command);
}

int
main(int argc, char **argv)
{
    if (argc > 1)
        g_command = argv[1];
    return bench::guardedMain(run);
}
