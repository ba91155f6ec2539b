/**
 * @file
 * Simple out-of-order core model per the paper's Table 6: 4 GHz, 4-wide
 * issue, 128-entry instruction window, trace-driven. Modeled after the
 * simple core of Ramulator: non-memory instructions retire freely,
 * memory reads occupy a window slot until their data returns, and writes
 * are posted to the memory system without stalling retirement.
 */

#ifndef ROWHAMMER_CPU_CORE_HH
#define ROWHAMMER_CPU_CORE_HH

#include <cstdint>
#include <functional>
#include <vector>

namespace rowhammer::cpu
{

/** One unit of work from an instruction trace. */
struct TraceEntry
{
    /** Non-memory instructions preceding the memory access. */
    int bubbles = 0;
    std::uint64_t addr = 0;
    bool write = false;
};

/** Source of trace entries (synthetic generator or replayer). */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;
    virtual TraceEntry next() = 0;
};

/** Core performance counters. */
struct CoreStats
{
    std::int64_t cycles = 0;
    std::int64_t retired = 0;
    std::int64_t memReads = 0;
    std::int64_t memWrites = 0;

    double ipc() const
    {
        return cycles ? static_cast<double>(retired) /
                static_cast<double>(cycles)
                      : 0.0;
    }

    /** Memory accesses (reads + writes) per kilo-instruction. */
    double apki() const
    {
        return retired ? 1000.0 *
                static_cast<double>(memReads + memWrites) /
                static_cast<double>(retired)
                       : 0.0;
    }
};

/**
 * Trace-driven core. The memory system is abstracted as a send function:
 * send(addr, write, slot) returns false when the memory system cannot
 * accept the request this cycle (back-pressure; the core retries on a
 * later tick). A read's data returns as complete(slot); a posted
 * write's slot means nothing.
 */
class Core
{
  public:
    using SendFn = std::function<bool(std::uint64_t addr, bool write,
                                      std::uint32_t slot)>;

    /**
     * @param trace Instruction trace (not owned; must outlive the core).
     * @param send Memory-system injection function.
     * @param issue_width Instructions issued/retired per cycle (4).
     * @param window_size In-flight instruction window (128).
     */
    Core(TraceSource &trace, SendFn send, int issue_width = 4,
         int window_size = 128);

    /**
     * Advance one CPU clock cycle. Returns false when the tick changed
     * nothing but stats().cycles: nothing retired, nothing entered the
     * window, no trace entry was fetched and no send was accepted. Such
     * a core repeats the same tick until one of its reads completes or
     * the send function's answer changes.
     */
    bool tick();

    /** The read sent with `slot` has its data and may retire. */
    void complete(std::uint32_t slot) { window_[slot].done = true; }

    /** The effect of `n` ticks that return false (see tick()). */
    void idleCycles(std::int64_t n) { stats_.cycles += n; }

    const CoreStats &stats() const { return stats_; }

    /** In-flight window occupancy (tests). */
    std::size_t windowOccupancy() const { return windowCount_; }

  private:
    struct WindowEntry
    {
        bool done = true;
    };

    TraceSource &trace_;
    SendFn send_;
    int issueWidth_;
    int windowSize_;

    /**
     * In-order instruction window as a fixed ring buffer: entries never
     * move, so a read's ring index names it until it completes (it
     * cannot retire, and its slot cannot be reused, before that).
     */
    std::vector<WindowEntry> window_;
    std::size_t windowHead_ = 0; ///< Index of the oldest entry.
    std::size_t windowCount_ = 0;

    /** Append a not-yet-done entry; returns its slot. */
    std::uint32_t windowPush()
    {
        const auto slot = static_cast<std::uint32_t>(
            (windowHead_ + windowCount_++) % window_.size());
        window_[slot].done = false;
        return slot;
    }

    void windowPop()
    {
        windowHead_ = (windowHead_ + 1) % window_.size();
        --windowCount_;
    }
    /** Bubbles still to issue before the pending memory access. */
    int pendingBubbles_ = 0;
    bool haveEntry_ = false;
    TraceEntry entry_;

    CoreStats stats_;
};

} // namespace rowhammer::cpu

#endif // ROWHAMMER_CPU_CORE_HH
