#include "core.hh"

#include "util/logging.hh"

namespace rowhammer::cpu
{

Core::Core(TraceSource &trace, SendFn send, int issue_width,
           int window_size)
    : trace_(trace), send_(std::move(send)), issueWidth_(issue_width),
      windowSize_(window_size)
{
    if (issue_width <= 0 || window_size <= 0)
        util::fatal("Core: issue width and window size must be positive");
    window_.resize(static_cast<std::size_t>(window_size));
}

bool
Core::tick()
{
    ++stats_.cycles;
    bool progress = false;

    // Retire in order, up to the issue width.
    for (int i = 0; i < issueWidth_ && windowCount_ != 0; ++i) {
        if (!window_[windowHead_].done)
            break;
        windowPop();
        ++stats_.retired;
        progress = true;
    }

    // Issue up to the issue width.
    for (int i = 0; i < issueWidth_; ++i) {
        if (!haveEntry_) {
            entry_ = trace_.next();
            pendingBubbles_ = entry_.bubbles;
            haveEntry_ = true;
            progress = true;
        }
        if (static_cast<int>(windowCount_) >= windowSize_)
            break;
        if (pendingBubbles_ > 0) {
            complete(windowPush());
            --pendingBubbles_;
        } else if (entry_.write) {
            // Posted write: does not block retirement, but must be
            // accepted by the memory system.
            if (!send_(entry_.addr, true, 0))
                break;
            complete(windowPush());
            ++stats_.memWrites;
            haveEntry_ = false;
        } else {
            if (!send_(entry_.addr, false, windowPush())) {
                --windowCount_; // Undo the push; retry on a later tick.
                break;
            }
            ++stats_.memReads;
            haveEntry_ = false;
        }
        progress = true;
    }
    return progress;
}

} // namespace rowhammer::cpu
