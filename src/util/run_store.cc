#include "run_store.hh"

#include <unistd.h>

#include <algorithm>
#include <array>
#include <utility>

#include "util/logging.hh"
#include "util/serialize.hh"

namespace rowhammer::util
{

namespace
{

constexpr char kMagic[4] = {'R', 'H', 'R', 'S'};
constexpr std::size_t kHeaderBytes = 4 + 4 + 8;
constexpr std::size_t kFrameBytes = 4 + 4; ///< Payload length + CRC.

std::uint32_t
readU32(const std::string &bytes, std::size_t pos)
{
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(
                 static_cast<std::uint8_t>(bytes[pos + i]))
            << (8 * i);
    return v;
}

std::uint64_t
readU64(const std::string &bytes, std::size_t pos)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(
                 static_cast<std::uint8_t>(bytes[pos + i]))
            << (8 * i);
    return v;
}

std::string
hex64(std::uint64_t v)
{
    static const char digits[] = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[static_cast<std::size_t>(i)] = digits[v & 0xF];
        v >>= 4;
    }
    return out;
}

} // namespace

std::uint32_t
crc32(const std::string &bytes)
{
    static const auto table = [] {
        std::array<std::uint32_t, 256> t{};
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
            t[i] = c;
        }
        return t;
    }();
    std::uint32_t crc = 0xFFFFFFFFu;
    for (char ch : bytes) {
        crc = table[(crc ^ static_cast<std::uint8_t>(ch)) & 0xFF] ^
            (crc >> 8);
    }
    return crc ^ 0xFFFFFFFFu;
}

RunStore::RunStore(std::string path, std::uint64_t configHash, Io *io,
                   bool exclusive)
    : path_(std::move(path)), configHash_(configHash),
      io_(io ? io : &Io::system()), exclusive_(exclusive)
{
}

RunStore::~RunStore()
{
    // Dropping the fd releases the flock. The .lock file itself is
    // deliberately NOT unlinked: removing it while a third process
    // holds an fd to the same inode reopens the classic two-lockers
    // race, and a stale empty lock file is harmless.
    if (lockFd_ >= 0)
        io_->closeFd(lockFd_);
}

void
RunStore::acquireLockLocked()
{
    if (!exclusive_ || lockFd_ >= 0)
        return;
    const std::string lock_path = path_ + ".lock";
    const std::size_t slash = path_.rfind('/');
    if (slash != std::string::npos && slash > 0)
        io_->makeDirs(path_.substr(0, slash));
    const int fd = io_->openLockFile(lock_path);
    if (fd < 0) {
        warn("run store " + path_ + ": cannot open " + lock_path +
             "; continuing without the concurrent-open guard");
        exclusive_ = false;
        return;
    }
    if (!io_->tryLockExclusive(fd)) {
        std::string holder;
        if (!io_->readFile(lock_path, holder) || holder.empty())
            holder = "unknown holder";
        // Strip a trailing newline for a clean one-line message.
        while (!holder.empty() && holder.back() == '\n')
            holder.pop_back();
        io_->closeFd(fd);
        fatal("run store " + path_ + " is already open by " + holder +
              " (advisory lock " + lock_path +
              "): two live runs must not interleave writes to one "
              "checkpoint store");
    }
    lockFd_ = fd;
    io_->truncateFd(fd);
    io_->writeAllFd(fd, "pid " + std::to_string(::getpid()) + "\n");
}

void
RunStore::quarantineLocked(const std::string &why)
{
    const std::string aside = path_ + ".corrupt";
    if (io_->renameFile(path_, aside)) {
        warn("run store " + path_ + ": " + why +
             "; file quarantined to " + aside +
             ", recomputing all shards");
    } else {
        warn("run store " + path_ + ": " + why +
             "; quarantine rename failed, recomputing all shards");
    }
    quarantined_ = true;
}

std::string
RunStore::pathInDir(const std::string &dir, std::uint64_t config_hash)
{
    return dir + "/" + hex64(config_hash) + ".rst";
}

std::size_t
RunStore::load()
{
    std::lock_guard<std::mutex> lock(mu_);
    acquireLockLocked();
    records_.clear();
    order_.clear();

    // A crash between atomicWriteFile's write and rename leaves an
    // orphaned temp file behind; sweep it so it cannot pile up (and so
    // a later damaged-file post-mortem is not confused by stale bytes).
    const std::string tmp_path = path_ + ".tmp";
    if (io_->fileExists(tmp_path)) {
        warn("run store " + path_ +
             ": sweeping orphaned temp file from an interrupted write");
        io_->removeFile(tmp_path);
    }

    std::string bytes;
    if (!io_->readFile(path_, bytes))
        return 0; // First run (or unreadable): start empty.

    if (bytes.size() < kHeaderBytes ||
        !std::equal(kMagic, kMagic + 4, bytes.begin())) {
        quarantineLocked("not a checkpoint file");
        return 0;
    }
    const std::uint32_t version = readU32(bytes, 4);
    if (version != kFormatVersion) {
        quarantineLocked("format version " + std::to_string(version) +
                         " != " + std::to_string(kFormatVersion));
        return 0;
    }
    const std::uint64_t stamped = readU64(bytes, 8);
    if (stamped != configHash_) {
        quarantineLocked(
            "config hash mismatch (stale run description)");
        return 0;
    }

    std::size_t pos = kHeaderBytes;
    while (pos < bytes.size()) {
        if (bytes.size() - pos < kFrameBytes) {
            warn("run store " + path_ +
                 ": truncated record frame; keeping " +
                 std::to_string(order_.size()) +
                 " shards, recomputing the rest");
            break;
        }
        const std::uint32_t len = readU32(bytes, pos);
        const std::uint32_t stored_crc = readU32(bytes, pos + 4);
        if (len < 8 || bytes.size() - pos - kFrameBytes < len) {
            warn("run store " + path_ +
                 ": truncated record payload; keeping " +
                 std::to_string(order_.size()) +
                 " shards, recomputing the rest");
            break;
        }
        const std::string payload =
            bytes.substr(pos + kFrameBytes, len);
        if (crc32(payload) != stored_crc) {
            warn("run store " + path_ +
                 ": record CRC mismatch (corrupt checkpoint); "
                 "keeping " +
                 std::to_string(order_.size()) +
                 " shards, recomputing the rest");
            break;
        }
        const std::uint64_t key = readU64(payload, 0);
        if (records_.emplace(key, payload.substr(8)).second)
            order_.push_back(key);
        pos += kFrameBytes + len;
    }
    return order_.size();
}

const std::string *
RunStore::get(std::uint64_t key) const
{
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = records_.find(key);
    return it == records_.end() ? nullptr : &it->second;
}

std::string
RunStore::encodeFile() const
{
    std::string out(kMagic, 4);
    ByteWriter header;
    header.u32(kFormatVersion);
    header.u64(configHash_);
    out += header.bytes();
    for (std::uint64_t key : order_) {
        ByteWriter payload;
        payload.u64(key);
        const std::string &value = records_.at(key);
        std::string framed = payload.bytes() + value;
        ByteWriter frame;
        frame.u32(static_cast<std::uint32_t>(framed.size()));
        frame.u32(crc32(framed));
        out += frame.bytes();
        out += framed;
    }
    return out;
}

void
RunStore::put(std::uint64_t key, std::string value)
{
    std::lock_guard<std::mutex> lock(mu_);
    acquireLockLocked(); // No-op unless exclusive and not yet held.
    // try_emplace leaves `value` alone when the key is already held.
    const auto [it, inserted] = records_.try_emplace(key, std::move(value));
    if (inserted)
        order_.push_back(key);
    else if (it->second == value)
        return; // Shard already recorded with these bytes.
    else
        it->second = std::move(value);
    if (!persistent_)
        return;

    // Ensure the parent directory exists on the first write.
    const std::size_t slash = path_.rfind('/');
    if (slash != std::string::npos && slash > 0)
        io_->makeDirs(path_.substr(0, slash));

    if (!atomicWriteFile(*io_, path_, encodeFile())) {
        warn("run store " + path_ +
             ": write failed (disk full?); checkpointing disabled "
             "for this run, results are unaffected");
        persistent_ = false;
    }
}

std::size_t
RunStore::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return order_.size();
}

bool
RunStore::persistent() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return persistent_;
}

bool
RunStore::quarantinedOnLoad() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return quarantined_;
}

} // namespace rowhammer::util
