#include "harness.hh"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "util/logging.hh"

namespace perfbench
{

double
wallNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
cpuNow()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const auto secs = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
            static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

int
onlineCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return std::max(1, CPU_COUNT(&set));
    return std::max(1u, std::thread::hardware_concurrency());
}

int
poolWorkers()
{
    // TaskPool(0) would mean "one per hardware thread", so a 1-CPU box
    // still gets one explicit worker.
    return std::max(1, onlineCpus() - 1);
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::string
hexBits(double value)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(bits));
    return buf;
}

void
Metrics::set(const std::string &name, double value,
             const std::string &unit)
{
    for (Entry &e : entries_) {
        if (e.name == name) {
            e.value = value;
            e.unit = unit;
            return;
        }
    }
    entries_.push_back({name, value, unit});
}

std::vector<std::string>
Metrics::names() const
{
    std::vector<std::string> out;
    for (const Entry &e : entries_)
        out.push_back(e.name);
    return out;
}

std::string
Metrics::json() const
{
    std::ostringstream out;
    out << "{";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        const Entry &e = entries_[i];
        // JSON has no NaN/Inf; a non-finite value is a benchmark bug,
        // reported as 0 rather than as an unparseable result.
        const double v = std::isfinite(e.value) ? e.value : 0.0;
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        out << (i ? ", " : "") << "\"" << e.name << "\": {\"value\": "
            << buf << ", \"unit\": \"" << e.unit << "\"}";
    }
    out << "}";
    return out.str();
}

Units::Units(const Options &options)
{
    const std::string path = options.referenceDir + "/" +
        options.workload + "-seed" + std::to_string(options.seed) +
        ".txt";
    std::ifstream in(path);
    if (!in)
        return;
    pinned_ = true;
    std::string line;
    long index = 0;
    while (std::getline(in, line)) {
        const std::size_t tab = line.find('\t');
        if (tab == std::string::npos)
            continue;
        std::string value = line.substr(tab + 1);
        if (options.perturbReference && index % 10 == 0)
            value += "~perturbed";
        reference_[line.substr(0, tab)] = std::move(value);
        ++index;
    }
}

bool
Units::matchesReference(const std::string &key, const std::string &actual)
{
    if (seenKeys_.insert(key).second)
        seen_.emplace_back(key, actual);
    if (!pinned_)
        return true;
    const std::string *expected = reference(key);
    return expected && *expected == actual;
}

const std::string *
Units::reference(const std::string &key) const
{
    const auto it = reference_.find(key);
    return it == reference_.end() ? nullptr : &it->second;
}

void
Units::count(bool ok)
{
    ++attempted_;
    if (!ok)
        ++failed_;
}

void
Units::failAll(long n)
{
    attempted_ += n;
    failed_ += n;
}

void
Units::writeReference(const std::string &path) const
{
    std::ofstream out(path);
    for (const auto &[key, value] : seen_)
        out << key << '\t' << value << '\n';
    if (!out)
        throw rowhammer::util::FatalError("cannot write " + path);
}

void
PoolTimeline::newBatch()
{
    std::lock_guard<std::mutex> lock(mu_);
    ++batch_;
}

void
PoolTimeline::jobDone()
{
    const double at = wallNow();
    std::lock_guard<std::mutex> lock(mu_);
    done_.push_back({batch_, std::this_thread::get_id(), at});
}

double
PoolTimeline::tailSeconds() const
{
    std::lock_guard<std::mutex> lock(mu_);
    // Per batch: each thread's last completion; the tail runs from the
    // earliest of those (a thread found the batch drained) to the
    // latest (the batch ended).
    std::map<std::size_t, std::map<std::thread::id, double>> last;
    for (const Done &d : done_) {
        double &t = last[d.batch][d.thread];
        t = std::max(t, d.at);
    }
    double tail = 0.0;
    for (const auto &[batch, per_thread] : last) {
        double lo = 0.0;
        double hi = 0.0;
        bool first = true;
        for (const auto &[thread, at] : per_thread) {
            lo = first ? at : std::min(lo, at);
            hi = first ? at : std::max(hi, at);
            first = false;
        }
        tail += hi - lo;
    }
    return tail;
}

void
setPoolMetrics(Metrics &m, double busy_s, double wall_s, double tail_s)
{
    const double capacity = static_cast<double>(poolWorkers() + 1) * wall_s;
    m.set("taskpool.busy_s", busy_s, "s");
    m.set("taskpool.idle_s", std::max(0.0, capacity - busy_s), "s");
    m.set("taskpool.efficiency", capacity > 0 ? busy_s / capacity : 0.0,
          "ratio");
    m.set("taskpool.tail_s", tail_s, "s");
}

} // namespace perfbench
