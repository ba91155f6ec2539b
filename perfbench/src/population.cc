/**
 * @file
 * Workload `population`: Figure 8 + Figure 9 over every chip that
 * fault::sampleChips yields for fault::allModules(). Every chip gets
 * HCfirst (k = 1 flip per 64-bit word); DDR3/DDR4 chips also get
 * k = 2 and k = 3, as in Figure 9 (LPDDR4 chips are excluded there
 * because their on-die ECC obfuscates the analysis, but their k = 1
 * search runs every read through that ECC). The chip array is scaled
 * to kRows rows so the population fits the run.
 */

#include <climits>
#include <optional>

#include "charlib/hcfirst.hh"
#include "charlib/runner.hh"
#include "dram/types.hh"
#include "fault/population.hh"
#include "harness.hh"
#include "util/taskpool.hh"

namespace perfbench
{
namespace
{

using namespace rowhammer;

/** Rows per bank of every chip (the model's default is 16384). */
constexpr int kRows = 1024;

/** Victim rows searched per chip and k (plus the weakest row). */
constexpr int kSampleRows = kRows;

/** One chip's measurement; hc[k-1] is HC to the first word with k
 *  flips (nullopt: none up to hcMax, or not measured). */
struct ChipResult
{
    bool threw = false;
    bool lpddr4 = false;
    std::optional<std::int64_t> hc[3];
    double makeModelSeconds = 0.0;
    double measureSeconds = 0.0;
};

std::string
encodeResult(const ChipResult &r)
{
    std::string out;
    for (int k = 0; k < 3; ++k) {
        if (k)
            out += ' ';
        if (r.lpddr4 && k > 0)
            out += 'x';
        else
            out += r.hc[k] ? std::to_string(*r.hc[k]) : "-";
    }
    return out;
}

class Population : public Workload
{
  public:
    explicit Population(const Options &options) : seed_(options.seed)
    {
        geometry_.rows = kRows;
    }

    void
    setUp() override
    {
        pool_ = std::make_unique<util::TaskPool>(poolWorkers());
        charlib::RunnerOptions runner_options;
        runner_options.seed = seed_;
        runner_options.pool = pool_.get();
        runner_ = std::make_unique<charlib::PopulationRunner>(runner_options);
        chips_.clear();
        salts_.clear();
        for (const fault::ModuleGroup &group : fault::allModules()) {
            for (fault::ChipInstance &chip :
                 fault::sampleChips(group, seed_, INT_MAX)) {
                salts_.push_back(chip.seed);
                chips_.push_back(std::move(chip));
            }
        }
    }

    void run() override { results_ = measure(nullptr); }

    void
    check(Units &units) override
    {
        const bool first = firstResults_.empty();
        for (std::size_t i = 0; i < chips_.size(); ++i) {
            const std::string text = encodeResult(results_[i]);
            bool ok = !results_[i].threw &&
                units.matchesReference(chipKey(chips_[i]), text);
            if (!first)
                ok = ok && text == firstResults_[i];
            units.count(ok);
            if (first)
                firstResults_.push_back(text);
        }
    }

    void
    tearDown() override
    {
        runner_.reset();
        pool_.reset();
    }

    void
    trace(Metrics &m, Units &units) override
    {
        PoolTimeline timeline;
        timeline.newBatch();
        const double cpu0 = cpuNow();
        const double wall0 = wallNow();
        results_ = measure(&timeline);
        setPoolMetrics(m, cpuNow() - cpu0, wallNow() - wall0,
                       timeline.tailSeconds());
        check(units);

        std::vector<double> ddr_ms;
        std::vector<double> lpddr4_ms;
        double make_model_s = 0.0;
        double lpddr4_s = 0.0;
        double all_s = 0.0;
        for (const ChipResult &r : results_) {
            const double job_s = r.makeModelSeconds + r.measureSeconds;
            (r.lpddr4 ? lpddr4_ms : ddr_ms)
                .push_back(r.measureSeconds * 1e3);
            make_model_s += r.makeModelSeconds;
            all_s += job_s;
            if (r.lpddr4)
                lpddr4_s += job_s;
        }
        const auto max_of = [](const std::vector<double> &v) {
            return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
        };
        m.set("charlib.chips", static_cast<double>(results_.size()),
              "count");
        m.set("charlib.hcfirst_ms.ddr.p50", median(ddr_ms), "ms");
        m.set("charlib.hcfirst_ms.ddr.max", max_of(ddr_ms), "ms");
        m.set("charlib.hcfirst_ms.lpddr4.p50", median(lpddr4_ms), "ms");
        m.set("charlib.hcfirst_ms.lpddr4.max", max_of(lpddr4_ms), "ms");
        m.set("fault.make_model_s", make_model_s, "s");
        m.set("ecc.lpddr4_share", all_s > 0 ? lpddr4_s / all_s : 0.0,
              "ratio");
    }

  private:
    static std::string
    chipKey(const fault::ChipInstance &chip)
    {
        return "chip " + chip.moduleId + " #" +
            std::to_string(chip.chipIndex);
    }

    /** Characterize every chip across the pool; with a timeline, each
     *  job also reports its completion. */
    std::vector<ChipResult>
    measure(PoolTimeline *timeline)
    {
        return runner_->map(
            chips_.size(),
            [&](std::size_t i, util::Rng &rng) {
                const fault::ChipInstance &chip = chips_[i];
                ChipResult r;
                r.lpddr4 = chip.spec.standard() == dram::Standard::LPDDR4;
                try {
                    const double t0 = wallNow();
                    fault::ChipModel model = chip.makeModel(geometry_);
                    const double t1 = wallNow();
                    charlib::HcFirstOptions options;
                    options.sampleRows = kSampleRows;
                    r.hc[0] = charlib::findHcFirst(model, options, rng);
                    if (!r.lpddr4) {
                        // Figure 9's sweep extends to 200k hammers.
                        options.hcMax = 200000;
                        for (int k = 2; k <= 3; ++k) {
                            options.flipsPerWord = k;
                            r.hc[k - 1] =
                                charlib::findHcFirst(model, options, rng);
                        }
                    }
                    r.makeModelSeconds = t1 - t0;
                    r.measureSeconds = wallNow() - t1;
                } catch (const std::exception &) {
                    r.threw = true;
                }
                if (timeline)
                    timeline->jobDone();
                return r;
            },
            &salts_);
    }

    std::uint64_t seed_;
    fault::ChipGeometry geometry_;
    std::unique_ptr<util::TaskPool> pool_;
    std::unique_ptr<charlib::PopulationRunner> runner_;
    std::vector<fault::ChipInstance> chips_;
    std::vector<std::uint64_t> salts_;
    std::vector<ChipResult> results_;
    /** encodeResult() of the first repetition (determinism across
     *  reps). */
    std::vector<std::string> firstResults_;
};

} // namespace

std::unique_ptr<Workload>
makePopulation(const Options &options)
{
    return std::make_unique<Population>(options);
}

} // namespace perfbench
