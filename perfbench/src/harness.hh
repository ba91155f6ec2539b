/**
 * @file
 * Shared machinery of the repository benchmark: command-line options,
 * host clocks, the metric set printed as the result's last line, the
 * pinned-reference unit check behind `failed`/`attempted`, and the
 * task-pool timeline the per-layer `taskpool.*` metrics come from.
 *
 * Each workload (fig10, fuzz-ckpt, population) implements Workload;
 * main.cc drives it either untraced (end-to-end metrics, repeated for
 * --seconds) or traced (one untraced repetition for the tracing
 * overhead, then one instrumented pass for the per-layer metrics).
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

namespace perfbench
{

/** Parsed command line (see main.cc for the flags). */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Directory holding the pinned references (<workload>-seed<N>.txt). */
    std::string referenceDir;
    /** Scratch directory for checkpoint stores; created and emptied. */
    std::string workDir;
    /** When set, write this run's unit results to this file (pinning). */
    std::string writeReference;
    /** Corrupt every tenth pinned unit after loading (self-test). */
    bool perturbReference = false;
};

/** Monotonic host time in seconds. */
double wallNow();

/** User + system CPU seconds of this process (all threads). */
double cpuNow();

/** Peak resident set size of this process, in MiB. */
double peakRssMb();

/** CPUs this process may run on (what `nproc` prints). */
int onlineCpus();

/**
 * Worker count for every pool the benchmark creates: nproc - 1, because
 * util::TaskPool(n) runs n workers plus the calling thread.
 */
int poolWorkers();

/** Median of a sample (0 for an empty one). */
double median(std::vector<double> values);

/** Exact bit pattern of a double as 16 hex digits. */
std::string hexBits(double value);

/** Ordered name -> (value, unit) map, printed as the JSON result. */
class Metrics
{
  public:
    void set(const std::string &name, double value,
             const std::string &unit);

    /** The metric names in insertion order. */
    std::vector<std::string> names() const;

    /** `{"name": {"value": v, "unit": "u"}, ...}` with every digit. */
    std::string json() const;

  private:
    struct Entry
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Entry> entries_;
};

/**
 * Per-unit correctness accounting. A unit is one grid cell, chip
 * measurement or campaign-log line; it fails when the workload threw
 * while producing it, when it differs from the pinned reference for
 * this seed (if one is pinned), or when a self-consistency check
 * (repetition vs. first repetition, warm vs. cold, traced vs. runMix)
 * fails.
 */
class Units
{
  public:
    /** Load `<dir>/<workload>-seed<seed>.txt` if it exists. */
    Units(const Options &options);

    /** True when a reference is pinned for this workload and seed. */
    bool pinned() const { return pinned_; }

    /**
     * Whether `actual` matches the pinned value of `key` (always true
     * without a pinned reference; false for a key the reference lacks).
     * Also remembers (key, actual) for --write-reference.
     */
    bool matchesReference(const std::string &key,
                          const std::string &actual);

    /** The pinned value of `key`, or nullptr. */
    const std::string *reference(const std::string &key) const;

    /** Number of pinned units (0 without a reference). */
    std::size_t referenceSize() const { return reference_.size(); }

    /** Count one unit, failed unless `ok`. */
    void count(bool ok);

    /** Count `n` units that all failed (e.g. the workload threw). */
    void failAll(long n);

    long attempted() const { return attempted_; }
    long failed() const { return failed_; }

    /** Write the remembered unit results as a reference file. */
    void writeReference(const std::string &path) const;

  private:
    bool pinned_ = false;
    std::map<std::string, std::string> reference_;
    std::vector<std::pair<std::string, std::string>> seen_;
    std::set<std::string> seenKeys_;
    long attempted_ = 0;
    long failed_ = 0;
};

/**
 * Completion timestamps of pool jobs, grouped by batch, from which the
 * pool tail is derived: for each batch, the time between the first
 * pool thread running out of work and the batch's last job finishing.
 * Thread-safe; jobDone() is called from pool threads.
 */
class PoolTimeline
{
  public:
    /** Start a new batch (caller thread, between batches). */
    void newBatch();

    /** Record that the calling thread finished a job now. */
    void jobDone();

    /** Sum over batches of the tail described above, in seconds. */
    double tailSeconds() const;

  private:
    struct Done
    {
        std::size_t batch;
        std::thread::id thread;
        double at;
    };
    mutable std::mutex mu_;
    std::size_t batch_ = 0;
    std::vector<Done> done_;
};

/**
 * Task-pool utilization over one pooled phase: busy is the process's
 * CPU time during the phase (the calling thread only waits on the
 * pool), capacity is (workers + 1) x wall.
 */
void setPoolMetrics(Metrics &m, double busy_s, double wall_s,
                    double tail_s);

/** One benchmark workload; see main.cc for how it is driven. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Build fresh runner objects for one repetition (timed as setup). */
    virtual void setUp() = 0;

    /** The phase users wait on (timed as wall_s / cpu_s). */
    virtual void run() = 0;

    /** Check the last run()'s outputs into `units`. */
    virtual void check(Units &units) = 0;

    /** Release what setUp() built (not timed). */
    virtual void tearDown() = 0;

    /**
     * Instrumented pass after setUp(): drive the layers through their
     * public functions, set every per-layer metric this workload
     * exercises, and count the pass's units.
     */
    virtual void trace(Metrics &metrics, Units &units) = 0;
};

std::unique_ptr<Workload> makeFig10(const Options &options);
std::unique_ptr<Workload> makeFuzzCkpt(const Options &options);
std::unique_ptr<Workload> makePopulation(const Options &options);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
