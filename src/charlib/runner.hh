/**
 * @file
 * Parallel population runner: fans per-chip characterization jobs
 * (HCfirst searches, the Section 5 analyses) across a thread pool, the
 * way the paper's testing infrastructure characterizes its 1,580-chip
 * population module by module.
 *
 * The pool machinery itself lives in util::TaskPool (shared with the
 * Figure 10 mitigation-sweep driver); this wrapper adds the
 * deterministic per-item RNG streams characterization jobs need.
 *
 * Determinism contract: each job draws only from an Rng stream derived
 * from (runner seed, per-chip salt), never from shared state, so a run
 * is bit-identical for any thread count — `threads = 1` and
 * `threads = 8` produce the same results in the same (input) order.
 * Chip-keyed salts additionally make each chip's result independent of
 * how the population is ordered or subset.
 */

#ifndef ROWHAMMER_CHARLIB_RUNNER_HH
#define ROWHAMMER_CHARLIB_RUNNER_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "charlib/hcfirst.hh"
#include "fault/population.hh"
#include "util/execution.hh"
#include "util/rng.hh"

namespace rowhammer::charlib
{

/**
 * Seed of the independent RNG stream of one population item. splitmix64
 * finalizer over (base, salt): uncorrelated streams for any salt set,
 * depending only on the two inputs — never on thread scheduling.
 */
std::uint64_t populationStreamSeed(std::uint64_t base, std::uint64_t salt);

/**
 * Configuration of a PopulationRunner. With checkpointPath set (see
 * util::Execution), measureHcFirst() persists each chip's finished
 * search to a util::RunStore file keyed by (seed, search options,
 * geometry), with per-chip records keyed by the chip's content hash —
 * so a restarted population run recomputes only the chips it had not
 * finished, and the result is identical to an uninterrupted run even
 * if the population is reordered or subset.
 */
struct RunnerOptions : util::Execution
{
    /** Base seed every per-chip stream derives from. */
    std::uint64_t seed = 2020;
};

/**
 * Thread-pool fan-out of per-chip jobs with deterministic results (see
 * file comment). Workers are started once and reused across calls; the
 * calling thread joins each batch, so a 1-thread runner costs nothing
 * over a serial loop.
 */
class PopulationRunner
{
  public:
    explicit PopulationRunner(RunnerOptions options = RunnerOptions{});

    PopulationRunner(const PopulationRunner &) = delete;
    PopulationRunner &operator=(const PopulationRunner &) = delete;

    /** Pool width (workers; the caller additionally joins batches). */
    int threadCount() const { return pool_->threadCount(); }

    const RunnerOptions &options() const { return options_; }

    /** The underlying pool, for jobs that manage their own streams. */
    util::TaskPool &pool() { return *pool_; }

    /**
     * results[i] = fn(i, rng_i) for every i in [0, count). fn must be
     * safe to call concurrently for distinct i. rng_i is seeded from
     * (options.seed, salts ? salts[i] : i); pass chip-keyed salts when
     * results should survive population reordering or subsetting.
     */
    template <typename Fn>
    auto map(std::size_t count, Fn &&fn,
             const std::vector<std::uint64_t> *salts = nullptr)
        -> std::vector<decltype(fn(std::size_t{0},
                                   std::declval<util::Rng &>()))>
    {
        return pool_->map(count, [&](std::size_t i) {
            util::Rng rng(populationStreamSeed(
                options_.seed, salts ? (*salts)[i] : i));
            return fn(i, rng);
        });
    }

    /**
     * findHcFirst across a chip population; results[i] belongs to
     * chips[i]. Streams are salted by chip seed, so a chip's measured
     * HCfirst does not change when the population around it does.
     */
    std::vector<std::optional<std::int64_t>>
    measureHcFirst(const std::vector<fault::ChipInstance> &chips,
                   const HcFirstOptions &options,
                   fault::ChipGeometry geometry = fault::ChipGeometry{});

  private:
    RunnerOptions options_;
    std::unique_ptr<util::TaskPool> ownedPool_; ///< Null w/ options.pool.
    util::TaskPool *pool_;
};

} // namespace rowhammer::charlib

#endif // ROWHAMMER_CHARLIB_RUNNER_HH
