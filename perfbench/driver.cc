/**
 * @file
 * Closed-loop wall-clock workload driver (perfbench/README.md).
 *
 * Runs one workload for a fixed time with every client thread in a
 * closed loop: a client issues its next request only after the
 * previous one completed.  The driver generates every size, lifetime
 * and hand-off from --seed, fills each block with a tag-derived
 * pattern and verifies it before the block is freed, and counts every
 * failed allocator call.  It links none of the allocator: run it under
 * LD_PRELOAD=libhoard.so to measure Hoard, or without to measure the C
 * library's malloc (--launch, below, sets LD_PRELOAD itself).
 *
 * With --trace 1 it additionally records request spans (a `request`
 * parent with `shim.malloc` / `shim.free` children) in memory and
 * reads the preloaded allocator's own books through its exported
 * hoard_write_prometheus and hoard_stats (dlsym), at four points:
 * before the warm-up fill (begin), around the timed phase (start,
 * stop) and after every block was freed and every client joined
 * (end).  Between begin and end the driver itself allocates nothing
 * but workload blocks (its bookkeeping lives in mmap'd memory and the
 * Prometheus text goes to an mmap'd stream buffer), so the exported
 * counters can be reconciled against the driver's own counts.
 *
 * The last line of standard output is one JSON object with the raw
 * measurements; perfbench/run.py turns them into the named metrics.
 */

#include <dlfcn.h>
#include <fcntl.h>
#include <malloc.h>
#include <pthread.h>
#include <sched.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <unistd.h>
#include <x86intrin.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <ostream>
#include <streambuf>
#include <thread>

#include "common/stats.h"

namespace {

constexpr int kMaxThreads = 4;

[[noreturn]] void
die(const char* what)
{
    std::fprintf(stderr, "perfbench_driver: %s\n", what);
    std::exit(2);
}

/// @name Clocks.
/// @{

std::uint64_t
ticks()
{
    return __rdtsc();
}

std::int64_t
mono_ns()
{
    timespec ts;
    ::clock_gettime(CLOCK_MONOTONIC, &ts);
    return std::int64_t{ts.tv_sec} * 1000000000 + ts.tv_nsec;
}

/// @}

/** splitmix64: the whole input stream of a client derives from one
    64-bit state seeded from (--seed, client index). */
struct Rng
{
    std::uint64_t s;

    std::uint64_t
    next()
    {
        std::uint64_t z = (s += 0x9E3779B97F4A7C15ull);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
        return z ^ (z >> 31);
    }

    std::uint64_t below(std::uint64_t n) { return next() % n; }

    /** Log-uniform in [lo, lo << octaves): a uniform octave, then a
        uniform size inside it — skewed toward small sizes. */
    std::uint32_t
    log_size(std::uint32_t lo, int octaves)
    {
        std::uint32_t base = lo << below(static_cast<std::uint64_t>(octaves));
        return base + static_cast<std::uint32_t>(below(base));
    }
};

/**
 * Anonymous mapping holding @p n value-initialized Ts.  The driver's
 * bookkeeping lives here rather than on the heap under test, so the
 * allocator's counters see only workload blocks, and every page is
 * touched up front so the driver's own footprint is the same on every
 * run.
 */
template <class T>
class Mapped
{
  public:
    explicit Mapped(std::size_t n) : n_(n)
    {
        bytes_ = std::max<std::size_t>(n * sizeof(T), 1);
        void* p = ::mmap(nullptr, bytes_, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (p == MAP_FAILED)
            die("mmap failed");
        std::memset(p, 0, bytes_);
        p_ = static_cast<T*>(p);
        for (std::size_t i = 0; i < n_; ++i)
            new (&p_[i]) T();
    }

    ~Mapped()
    {
        for (std::size_t i = 0; i < n_; ++i)
            p_[i].~T();
        ::munmap(p_, bytes_);
    }

    Mapped(const Mapped&) = delete;
    Mapped& operator=(const Mapped&) = delete;

    T& operator[](std::size_t i) { return p_[i]; }
    T* data() { return p_; }
    std::size_t size() const { return n_; }

  private:
    std::size_t n_;
    std::size_t bytes_;
    T* p_;
};

/// @name Block patterns.
/// Small blocks carry the pattern in every byte; large buffers in one
/// word per page plus the last word (page words stop short of it so
/// the two never overlap), which is also what faults their pages in.
/// @{

constexpr std::uint32_t kPage = 4096;
constexpr std::uint32_t kLargeMin = kPage;

std::uint64_t
pattern(std::uint64_t tag, std::uint64_t i)
{
    return tag ^ (i * 0xD6E8FEB86659FD93ull);
}

void
fill(void* p, std::uint32_t n, std::uint64_t tag)
{
    auto* b = static_cast<unsigned char*>(p);
    if (n >= kLargeMin) {
        for (std::uint32_t off = 0; off + 16 <= n; off += kPage) {
            std::uint64_t w = pattern(tag, off / kPage);
            std::memcpy(b + off, &w, 8);
        }
        std::uint64_t last = pattern(tag, ~0ull);
        std::memcpy(b + n - 8, &last, 8);
        return;
    }
    std::uint32_t words = n / 8;
    auto* w = static_cast<std::uint64_t*>(p);
    for (std::uint32_t i = 0; i < words; ++i)
        w[i] = pattern(tag, i);
    std::uint64_t tail = pattern(tag, words);
    std::memcpy(b + words * 8, &tail, n - words * 8);
}

bool
intact(const void* p, std::uint32_t n, std::uint64_t tag)
{
    const auto* b = static_cast<const unsigned char*>(p);
    if (n >= kLargeMin) {
        for (std::uint32_t off = 0; off + 16 <= n; off += kPage) {
            std::uint64_t w;
            std::memcpy(&w, b + off, 8);
            if (w != pattern(tag, off / kPage))
                return false;
        }
        std::uint64_t last;
        std::memcpy(&last, b + n - 8, 8);
        return last == pattern(tag, ~0ull);
    }
    std::uint32_t words = n / 8;
    const auto* w = static_cast<const std::uint64_t*>(p);
    std::uint64_t acc = 0;
    for (std::uint32_t i = 0; i < words; ++i)
        acc |= w[i] ^ pattern(tag, i);
    std::uint64_t tail = pattern(tag, words);
    return acc == 0 && std::memcmp(b + words * 8, &tail, n - words * 8) == 0;
}

/// @}

/** One live workload block: where it is and what it must contain. */
struct Block
{
    void* p = nullptr;
    std::uint32_t size = 0;
    std::uint32_t prod_ticks = 0;  ///< pipeline: producer-side time + 1
    std::uint64_t tag = 0;
    std::uint64_t req = 0;         ///< pipeline: request id
};

/**
 * Latency histogram in TSC ticks: exact below 2 * kSub, then kSub
 * linear sub-buckets per octave (< 1.6% relative width).  No
 * allocation; one per client, merged after the run.
 */
struct LatencyHist
{
    static constexpr int kSubBits = 6;
    static constexpr int kSub = 1 << kSubBits;
    static constexpr int kBuckets = (64 - kSubBits + 1) * kSub;

    std::uint64_t count[kBuckets];
    std::uint64_t n;

    static int
    index(std::uint64_t v)
    {
        if (v < 2 * kSub)
            return static_cast<int>(v);
        int shift = 63 - __builtin_clzll(v) - kSubBits;
        int top = static_cast<int>(v >> shift);  // [kSub, 2 * kSub)
        return (shift + 1) * kSub + (top - kSub);
    }

    static double
    lower(int idx)
    {
        if (idx < 2 * kSub)
            return idx;
        int shift = idx / kSub - 1;
        return std::ldexp(static_cast<double>(idx % kSub + kSub), shift);
    }

    static double
    width(int idx)
    {
        return idx < 2 * kSub ? 1.0 : std::ldexp(1.0, idx / kSub - 1);
    }

    void
    add(std::uint64_t v)
    {
        ++count[index(v)];
        ++n;
    }

    void
    merge(const LatencyHist& o)
    {
        for (int i = 0; i < kBuckets; ++i)
            count[i] += o.count[i];
        n += o.n;
    }

    /** Percentile @p q (0..1) in ticks, interpolated in its bucket. */
    double
    percentile(double q) const
    {
        if (n == 0)
            return 0.0;
        double rank = q * static_cast<double>(n);
        std::uint64_t seen = 0;
        for (int i = 0; i < kBuckets; ++i) {
            if (count[i] == 0)
                continue;
            if (static_cast<double>(seen + count[i]) >= rank) {
                double frac = (rank - static_cast<double>(seen)) /
                              static_cast<double>(count[i]);
                return lower(i) + frac * width(i);
            }
            seen += count[i];
        }
        return lower(kBuckets - 1);
    }
};

/**
 * One sampled request as spans: the request itself and the shim calls
 * it made.  Zero ticks mark an absent child (a pipeline producer frees
 * nothing; its consumer mallocs nothing).  A request id is the
 * issuing client's index in the top bits and its request sequence
 * number below, so both halves of a pipeline message share one id.
 */
struct SpanRecord
{
    std::uint64_t req = 0;
    std::uint64_t t0 = 0, t1 = 0;         ///< request
    std::uint64_t malloc_at[2] = {0, 0};  ///< shim.malloc
    std::uint64_t free_at[2] = {0, 0};    ///< shim.free
};

std::uint64_t
request_id(int client, std::uint64_t seq)
{
    return static_cast<std::uint64_t>(client) << 40 | seq;
}

constexpr std::size_t kSpanRing = 8192;  ///< latest records kept per client

/** Single-producer single-consumer ring of Blocks (kv_churn mailbox). */
struct Mailbox
{
    static constexpr std::uint32_t kCap = 1024;
    alignas(64) std::atomic<std::uint32_t> head{0};  ///< written by sender
    alignas(64) std::atomic<std::uint32_t> tail{0};  ///< written by owner
    Block slot[kCap];

    bool
    push(const Block& b)
    {
        std::uint32_t h = head.load(std::memory_order_relaxed);
        if (h - tail.load(std::memory_order_acquire) == kCap)
            return false;
        slot[h % kCap] = b;
        head.store(h + 1, std::memory_order_release);
        return true;
    }
};

/** Pipeline hand-off: a bounded SPSC ring of message batches. */
struct Pipe
{
    static constexpr std::uint32_t kBatch = 32;
    struct Batch
    {
        Block msg[kBatch];
    };

    std::uint32_t cap = 0;  ///< batches; caps the messages in flight
    Batch* ring = nullptr;
    alignas(64) std::atomic<std::uint32_t> head{0};
    alignas(64) std::atomic<std::uint32_t> tail{0};
};

enum class Workload { kv_churn, xthread_pipeline, large_buffers };

struct Options
{
    Workload workload = Workload::kv_churn;
    const char* name = "kv_churn";
    std::uint64_t seed = 1;
    double seconds = 1.0;
    bool trace = false;
    bool setup_only = false;
    bool tiny = false;
    std::int64_t t0_ns = 0;
    const char* out = nullptr;
};

/** Per-workload sizes; --tiny shrinks the live set for self-tests. */
struct Shape
{
    std::uint32_t kv_keys;        ///< kv_churn table entries per client
    std::uint32_t pipe_batches;   ///< xthread_pipeline in-flight batches
    std::uint32_t pool;           ///< large_buffers live buffers per client
    std::uint64_t sample_period;  ///< 1 in N requests is timed
};

/** Per-client state and counters; one cache-line-aligned slot each. */
struct alignas(64) Client
{
    int id = 0;
    Rng rng{0};
    std::uint64_t calls = 0;      ///< allocator calls attempted (all phases)
    std::uint64_t fail_null = 0;
    std::uint64_t fail_content = 0;
    std::uint64_t fail_usable = 0;
    std::uint64_t large_mallocs = 0;
    /// Requested bytes this client malloc'd minus those it freed; the
    /// sum over clients is the live set (a block handed to another
    /// client counts until that client frees it).  Single writer, read
    /// by the main thread's sampler.
    std::atomic<std::int64_t> live{0};
    /// Requests completed in the timed phase (single writer, sampled).
    std::atomic<std::uint64_t> requests{0};
    Block* table = nullptr;       ///< kv_churn table / large_buffers pool
    Mailbox* inbox = nullptr;     ///< kv_churn
    Mailbox* outbox = nullptr;
    Pipe* pipe = nullptr;         ///< xthread_pipeline
    bool producer = false;
    SpanRecord* spans = nullptr;  ///< trace mode only
    std::uint64_t span_count = 0;
    LatencyHist hist;             ///< sampled request latency
};

/// @name Run-wide coordination (main thread <-> clients).
/// @{

std::atomic<int> g_ready{0};     ///< clients done with the warm-up fill
std::atomic<bool> g_go{false};   ///< timed phase started
std::atomic<bool> g_stop{false}; ///< timed phase over
std::atomic<int> g_parked{0};    ///< clients done with the timed phase
std::atomic<bool> g_drain{false};///< free everything and exit

void
spin_until(const std::atomic<bool>& flag)
{
    for (int spins = 0; !flag.load(std::memory_order_acquire); ++spins) {
        if (spins < 256)
            _mm_pause();
        else
            ::sched_yield();
    }
}

/// @}

Options g_opt;
Shape g_shape;

/// @name Checked allocator calls.
/// @{

/** malloc + fill; @p at (when non-null) receives the call's start
    and end ticks — the shim.malloc span. */
void*
do_malloc(Client& c, std::uint32_t size, std::uint64_t tag,
          std::uint64_t* at = nullptr)
{
    ++c.calls;
    if (at != nullptr)
        at[0] = ticks();
    void* p = std::malloc(size);
    if (at != nullptr)
        at[1] = ticks();
    if (p == nullptr) {
        ++c.fail_null;
        return nullptr;
    }
    if (size >= kLargeMin)
        ++c.large_mallocs;
    c.live.store(c.live.load(std::memory_order_relaxed) + size,
                 std::memory_order_relaxed);
    fill(p, size, tag);
    return p;
}

/** verify + free; @p at as for do_malloc (the shim.free span). */
void
do_free(Client& c, const Block& b, std::uint64_t* at = nullptr)
{
    if (b.p == nullptr)
        return;
    if (!intact(b.p, b.size, b.tag))
        ++c.fail_content;
    ++c.calls;
    if (at != nullptr)
        at[0] = ticks();
    std::free(b.p);
    if (at != nullptr)
        at[1] = ticks();
    c.live.store(c.live.load(std::memory_order_relaxed) - b.size,
                 std::memory_order_relaxed);
}

/** malloc_usable_size >= the request, on a sample of blocks. */
void
check_usable(Client& c, const Block& b)
{
    if (b.p == nullptr)
        return;
    ++c.calls;
    if (::malloc_usable_size(b.p) < b.size)
        ++c.fail_usable;
}

/// @}

bool
sampled(std::uint64_t req)
{
    return req % g_shape.sample_period == 0;
}

/** Usable-size checks run on 1 in 64 requests, after the request's
    latency sample is taken. */
bool
usable_probe(std::uint64_t req)
{
    return req % 64 == 1;
}

void
record_span(Client& c, const SpanRecord& r)
{
    if (c.spans != nullptr)
        c.spans[c.span_count++ % kSpanRing] = r;
}

/// @name kv_churn: per-client key -> value tables, ~2% of replaced
/// values handed to the next client through its mailbox.
/// @{

Block
kv_new_value(Client& c, SpanRecord* span)
{
    Block b;
    b.size = c.rng.log_size(16, 6);  // 16 B .. 1 KiB
    b.tag = c.rng.next();
    b.p = do_malloc(c, b.size, b.tag,
                    span != nullptr ? span->malloc_at : nullptr);
    return b;
}

void
kv_drain_inbox(Client& c)
{
    Mailbox& mb = *c.inbox;
    std::uint32_t t = mb.tail.load(std::memory_order_relaxed);
    std::uint32_t h = mb.head.load(std::memory_order_acquire);
    if (t == h)
        return;
    for (; t != h; ++t)
        do_free(c, mb.slot[t % Mailbox::kCap]);
    mb.tail.store(t, std::memory_order_release);
}

void
kv_request(Client& c, std::uint64_t req)
{
    const bool timed = sampled(req);
    SpanRecord span;
    SpanRecord* sp = timed && c.spans != nullptr ? &span : nullptr;
    std::uint64_t t0 = timed ? ticks() : 0;
    kv_drain_inbox(c);
    Block& slot = c.table[c.rng.below(g_shape.kv_keys)];
    const bool hand_off = c.rng.below(50) == 0;
    if (!(hand_off && slot.p != nullptr && c.outbox->push(slot)))
        do_free(c, slot, sp != nullptr ? sp->free_at : nullptr);
    slot = kv_new_value(c, sp);
    if (timed) {
        std::uint64_t t1 = ticks();
        c.hist.add(t1 - t0);
        if (sp != nullptr) {
            sp->req = request_id(c.id, req);
            sp->t0 = t0;
            sp->t1 = t1;
            record_span(c, *sp);
        }
    }
    if (usable_probe(req))
        check_usable(c, slot);
}

void
kv_client(Client& c)
{
    for (std::uint32_t k = 0; k < g_shape.kv_keys; ++k)
        c.table[k] = kv_new_value(c, nullptr);
    g_ready.fetch_add(1, std::memory_order_acq_rel);
    spin_until(g_go);
    std::uint64_t req = 0;
    while (!g_stop.load(std::memory_order_relaxed)) {
        kv_request(c, ++req);
        c.requests.store(req, std::memory_order_relaxed);
    }
    g_parked.fetch_add(1, std::memory_order_acq_rel);
    spin_until(g_drain);
    // Every sender has stopped: the inbox holds its final contents.
    kv_drain_inbox(c);
    for (std::uint32_t k = 0; k < g_shape.kv_keys; ++k)
        do_free(c, c.table[k]);
}

/// @}

/// @name xthread_pipeline: producer -> consumer pairs; the consumer
/// frees every message, so every free is cross-thread.
/// @{

/** Waits until @p ready holds or the timed phase ends. */
template <class Pred>
bool
wait_for(Pred ready, bool honour_stop)
{
    for (int spins = 0; !ready(); ++spins) {
        if (honour_stop && g_stop.load(std::memory_order_relaxed))
            return false;
        if (spins < 256)
            _mm_pause();
        else
            ::sched_yield();
    }
    return true;
}

/** Produces one batch into the next free slot; false if stopped. */
bool
produce_batch(Client& c, std::uint64_t& seq, bool timed_phase)
{
    Pipe& p = *c.pipe;
    std::uint32_t h = p.head.load(std::memory_order_relaxed);
    if (!wait_for([&] {
            return h - p.tail.load(std::memory_order_acquire) < p.cap;
        }, timed_phase))
        return false;
    Pipe::Batch& batch = p.ring[h % p.cap];
    for (Block& m : batch.msg) {
        ++seq;
        const bool timed = timed_phase && sampled(seq);
        SpanRecord span;
        std::uint64_t t0 = timed ? ticks() : 0;
        m.size = c.rng.log_size(32, 6);  // 32 B .. 2 KiB
        m.tag = c.rng.next();
        m.req = request_id(c.id, seq);
        m.p = do_malloc(c, m.size, m.tag, timed ? span.malloc_at : nullptr);
        m.prod_ticks = 0;
        if (timed) {
            std::uint64_t t1 = ticks();
            // Nonzero marks the message as sampled for the consumer.
            m.prod_ticks = static_cast<std::uint32_t>(
                std::min<std::uint64_t>(t1 - t0, UINT32_MAX - 1) + 1);
            span.req = m.req;
            span.t0 = t0;
            span.t1 = t1;
            record_span(c, span);
        }
        if (timed_phase && usable_probe(seq))
            check_usable(c, m);
    }
    p.head.store(h + 1, std::memory_order_release);
    return true;
}

void
producer_client(Client& c)
{
    Pipe& p = *c.pipe;
    std::uint64_t seq = 0;
    // Warm-up: fill the pipe to its cap, so the in-flight peak is
    // reached before timing starts and does not depend on scheduling.
    for (std::uint32_t i = 0; i < p.cap; ++i)
        produce_batch(c, seq, false);
    g_ready.fetch_add(1, std::memory_order_acq_rel);
    spin_until(g_go);
    while (!g_stop.load(std::memory_order_relaxed) &&
           produce_batch(c, seq, true)) {
    }
    g_parked.fetch_add(1, std::memory_order_acq_rel);
    spin_until(g_drain);
}

void
consume_batch(Client& c, std::uint32_t t, bool timed_phase)
{
    Pipe& p = *c.pipe;
    for (Block& m : p.ring[t % p.cap].msg) {
        const bool timed = timed_phase && m.prod_ticks != 0;
        SpanRecord span;
        std::uint64_t t0 = timed ? ticks() : 0;
        do_free(c, m, timed ? span.free_at : nullptr);
        if (timed) {
            std::uint64_t t1 = ticks();
            // A message's latency: the producer's malloc + fill plus
            // the consumer's verify + free; time queued is excluded.
            c.hist.add(t1 - t0 + (m.prod_ticks - 1));
            span.req = m.req;
            span.t0 = t0;
            span.t1 = t1;
            record_span(c, span);
        }
        m = Block{};
    }
    if (timed_phase)
        c.requests.store(c.requests.load(std::memory_order_relaxed) +
                             Pipe::kBatch,
                         std::memory_order_relaxed);
    p.tail.store(t + 1, std::memory_order_release);
}

void
consumer_client(Client& c)
{
    Pipe& p = *c.pipe;
    g_ready.fetch_add(1, std::memory_order_acq_rel);
    spin_until(g_go);
    for (;;) {
        std::uint32_t t = p.tail.load(std::memory_order_relaxed);
        if (!wait_for([&] {
                return p.head.load(std::memory_order_acquire) != t;
            }, true))
            break;
        consume_batch(c, t, true);
        if (g_stop.load(std::memory_order_relaxed))
            break;
    }
    g_parked.fetch_add(1, std::memory_order_acq_rel);
    spin_until(g_drain);
    // The producer has parked: whatever it published is final.
    const std::uint32_t end = p.head.load(std::memory_order_acquire);
    for (std::uint32_t t = p.tail.load(std::memory_order_relaxed);
         t != end; ++t)
        consume_batch(c, t, false);
}

/// @}

/// @name large_buffers: a pool of 4 KiB .. 1 MiB buffers per client,
/// one replaced per request.
/// @{

Block
large_new(Client& c, SpanRecord* span)
{
    Block b;
    b.size = c.rng.log_size(4096, 8);  // 4 KiB .. 1 MiB
    b.tag = c.rng.next();
    b.p = do_malloc(c, b.size, b.tag,
                    span != nullptr ? span->malloc_at : nullptr);
    return b;
}

void
large_client(Client& c)
{
    for (std::uint32_t i = 0; i < g_shape.pool; ++i)
        c.table[i] = large_new(c, nullptr);
    g_ready.fetch_add(1, std::memory_order_acq_rel);
    spin_until(g_go);
    std::uint64_t req = 0;
    while (!g_stop.load(std::memory_order_relaxed)) {
        ++req;
        const bool timed = sampled(req);
        SpanRecord span;
        SpanRecord* sp = timed && c.spans != nullptr ? &span : nullptr;
        std::uint64_t t0 = timed ? ticks() : 0;
        Block& slot = c.table[c.rng.below(g_shape.pool)];
        do_free(c, slot, sp != nullptr ? sp->free_at : nullptr);
        slot = large_new(c, sp);
        if (timed) {
            std::uint64_t t1 = ticks();
            c.hist.add(t1 - t0);
            if (sp != nullptr) {
                sp->req = request_id(c.id, req);
                sp->t0 = t0;
                sp->t1 = t1;
                record_span(c, *sp);
            }
        }
        if (usable_probe(req))
            check_usable(c, slot);
        c.requests.store(req, std::memory_order_relaxed);
    }
    g_parked.fetch_add(1, std::memory_order_acq_rel);
    spin_until(g_drain);
    for (std::uint32_t i = 0; i < g_shape.pool; ++i)
        do_free(c, c.table[i]);
}

/// @}

/// @name Reading the preloaded allocator's exported books.
/// @{

/** std::streambuf over a fixed buffer: writing never allocates. */
class FixedBuf : public std::streambuf
{
  public:
    FixedBuf(char* p, std::size_t n) { setp(p, p + n); }
    const char* data() const { return pbase(); }
    std::size_t size() const { return static_cast<std::size_t>(pptr() - pbase()); }
    void rewind() { setp(pbase(), epptr()); }
    bool overflowed() const { return overflowed_; }

  protected:
    int_type
    overflow(int_type) override
    {
        overflowed_ = true;
        return traits_type::eof();
    }

  private:
    bool overflowed_ = false;
};

using WritePromFn = void (*)(std::ostream&);
using StatsFn = const hoard::detail::AllocatorStats& (*)();

struct StatsReading
{
    std::uint64_t allocs, frees, huge_allocs, superblock_allocs;
    std::uint64_t committed, committed_peak;
};

struct Books
{
    WritePromFn write_prom = nullptr;
    StatsFn stats = nullptr;
    FixedBuf* buf = nullptr;
    std::ostream* os = nullptr;
    StatsReading pre[4] = {};   ///< hoard_stats just before each dump
    StatsReading post[4] = {};  ///< ... and just after it

    StatsReading
    read_stats() const
    {
        const hoard::detail::AllocatorStats& s = stats();
        return {s.allocs.get(),      s.frees.get(),
                s.huge_allocs.get(), s.superblock_allocs.get(),
                s.committed_bytes.current(), s.committed_bytes.peak()};
    }

    /**
     * Writes the Prometheus text to <out>.prom_<name>.txt.  The
     * hoard_stats counters read on either side of the dump let the
     * reconciliation subtract the dump's own allocations exactly.
     */
    void
    read(int slot, const char* name)
    {
        buf->rewind();
        pre[slot] = read_stats();
        write_prom(*os);
        post[slot] = read_stats();
        if (buf->overflowed())
            die("Prometheus text exceeds the stream buffer");
        char path[512];
        std::snprintf(path, sizeof path, "%s.prom_%s.txt", g_opt.out, name);
        int fd = ::open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
        if (fd < 0)
            die("cannot write the Prometheus dump");
        const char* p = buf->data();
        std::size_t left = buf->size();
        while (left > 0) {
            ssize_t n = ::write(fd, p, left);
            if (n <= 0)
                die("short write of the Prometheus dump");
            p += n;
            left -= static_cast<std::size_t>(n);
        }
        ::close(fd);
    }
};

/// @}

/** Reads one "Vm...:  N kB" line of /proc/self/status without
    allocating. */
std::uint64_t
proc_status_kib(const char* key)
{
    char text[8192];
    int fd = ::open("/proc/self/status", O_RDONLY);
    if (fd < 0)
        return 0;
    ssize_t n = ::read(fd, text, sizeof text - 1);
    ::close(fd);
    if (n <= 0)
        return 0;
    text[n] = '\0';
    const char* at = std::strstr(text, key);
    if (at == nullptr)
        return 0;
    return std::strtoull(at + std::strlen(key) + 1, nullptr, 10);
}

/** Requested bytes live across all clients right now. */
std::int64_t
live_now(Mapped<Client>& clients)
{
    std::int64_t sum = 0;
    for (std::size_t i = 0; i < clients.size(); ++i)
        sum += clients[i].live.load(std::memory_order_relaxed);
    return sum;
}

/**
 * Sleeps through the timed phase [go_ns, go_ns + seconds) while
 * sampling the live set every millisecond; returns its peak.  A
 * live-set peak shorter than the sampling interval can be missed, so
 * blowup errs high.
 */
std::int64_t
watch(Mapped<Client>& clients, std::int64_t go_ns, double seconds)
{
    std::int64_t peak_live = live_now(clients);
    const auto end_ns = go_ns + static_cast<std::int64_t>(seconds * 1e9);
    for (std::int64_t now = mono_ns(); now < end_ns; now = mono_ns()) {
        timespec ts{0, static_cast<long>(
                           std::min<std::int64_t>(end_ns - now, 1000000))};
        ::nanosleep(&ts, nullptr);
        peak_live = std::max(peak_live, live_now(clients));
    }
    return peak_live;
}

double
timeval_s(const timeval& tv)
{
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
}

void
parse(int argc, char** argv)
{
    for (int i = 1; i < argc; ++i) {
        auto value = [&](const char* flag) -> const char* {
            if (std::strcmp(argv[i], flag) != 0)
                return nullptr;
            if (i + 1 >= argc)
                die("flag needs a value");
            return argv[++i];
        };
        if (const char* v = value("--workload")) {
            g_opt.name = v;
            if (std::strcmp(v, "kv_churn") == 0)
                g_opt.workload = Workload::kv_churn;
            else if (std::strcmp(v, "xthread_pipeline") == 0)
                g_opt.workload = Workload::xthread_pipeline;
            else if (std::strcmp(v, "large_buffers") == 0)
                g_opt.workload = Workload::large_buffers;
            else
                die("unknown workload");
        } else if (const char* s = value("--seed")) {
            g_opt.seed = std::strtoull(s, nullptr, 10);
        } else if (const char* d = value("--seconds")) {
            g_opt.seconds = std::strtod(d, nullptr);
        } else if (const char* tr = value("--trace")) {
            g_opt.trace = std::strcmp(tr, "1") == 0;
        } else if (const char* t0 = value("--t0-ns")) {
            g_opt.t0_ns = std::strtoll(t0, nullptr, 10);
        } else if (const char* o = value("--out")) {
            g_opt.out = o;
        } else if (std::strcmp(argv[i], "--setup-only") == 0) {
            g_opt.setup_only = true;
        } else if (std::strcmp(argv[i], "--tiny") == 0) {
            g_opt.tiny = true;
        } else {
            die("unknown flag");
        }
    }
    if (g_opt.seconds <= 0)
        die("--seconds must be positive");
    if (g_opt.trace && g_opt.out == nullptr)
        die("--trace 1 needs --out <path prefix>");
    g_shape = g_opt.tiny ? Shape{1024, 16, 8, 16} : Shape{65536, 1024, 32, 16};
    if (g_opt.workload == Workload::large_buffers)
        g_shape.sample_period = 1;
}

/** min(4, nproc) clients; a pipeline needs whole pairs. */
int
client_count()
{
    const unsigned hw = std::thread::hardware_concurrency();
    const int n = std::clamp(hw == 0 ? 1 : static_cast<int>(hw), 1, kMaxThreads);
    return g_opt.workload == Workload::xthread_pipeline ? std::max(2, n & ~1) : n;
}

/**
 * `perfbench_driver --launch <libhoard.so | -> <flags>`: reads the
 * clock, then execs the driver again with <flags> plus --t0-ns and,
 * unless "-", LD_PRELOAD=<libhoard.so>.  setup_s thus starts at the
 * exec and covers the loader, the shim constructor and the warm-up
 * fill, and none of the cost of spawning the launcher itself.
 */
[[noreturn]] void
launch(int argc, char** argv)
{
    constexpr int kMaxArgs = 64;
    if (argc < 3 || argc + 1 > kMaxArgs)
        die("--launch needs <libhoard.so | -> and at most 60 flags");
    char t0[32];
    std::snprintf(t0, sizeof t0, "%" PRId64, mono_ns());
    char* args[kMaxArgs];
    int k = 0;
    args[k++] = argv[0];
    for (int i = 3; i < argc; ++i)
        args[k++] = argv[i];
    args[k++] = const_cast<char*>("--t0-ns");
    args[k++] = t0;
    args[k] = nullptr;
    if (std::strcmp(argv[2], "-") != 0 && ::setenv("LD_PRELOAD", argv[2], 1) != 0)
        die("cannot set LD_PRELOAD");
    ::execv("/proc/self/exe", args);
    die("cannot exec the driver");
}

void
write_spans(Mapped<Client>& clients, double ns_per_tick, std::uint64_t base)
{
    char path[512];
    std::snprintf(path, sizeof path, "%s.spans.tsv", g_opt.out);
    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr)
        die("cannot write the span file");
    std::fprintf(f, "client\treq\tspan\tparent\tname\tstart_ns\tend_ns\n");
    auto ns = [&](std::uint64_t t) {
        return static_cast<double>(t - base) * ns_per_tick;
    };
    std::uint64_t id = 0;
    for (std::size_t i = 0; i < clients.size(); ++i) {
        Client& c = clients[i];
        std::uint64_t kept = std::min<std::uint64_t>(c.span_count, kSpanRing);
        for (std::uint64_t k = c.span_count - kept; k < c.span_count; ++k) {
            const SpanRecord& r = c.spans[k % kSpanRing];
            std::uint64_t parent = ++id;
            std::fprintf(f, "%zu\t%" PRIu64 "\t%" PRIu64 "\t0\trequest\t%.1f\t%.1f\n",
                         i, r.req, parent, ns(r.t0), ns(r.t1));
            if (r.malloc_at[0] != 0)
                std::fprintf(f, "%zu\t%" PRIu64 "\t%" PRIu64 "\t%" PRIu64
                                "\tshim.malloc\t%.1f\t%.1f\n",
                             i, r.req, ++id, parent, ns(r.malloc_at[0]),
                             ns(r.malloc_at[1]));
            if (r.free_at[0] != 0)
                std::fprintf(f, "%zu\t%" PRIu64 "\t%" PRIu64 "\t%" PRIu64
                                "\tshim.free\t%.1f\t%.1f\n",
                             i, r.req, ++id, parent, ns(r.free_at[0]),
                             ns(r.free_at[1]));
        }
    }
    std::fclose(f);
}

}  // namespace

int
main(int argc, char** argv)
{
    if (argc > 1 && std::strcmp(argv[1], "--launch") == 0)
        launch(argc, argv);
    // The process before the driver's own bookkeeping: the binary, the
    // C library and, when preloaded, the allocator's start-up state.
    const std::uint64_t base_kib = proc_status_kib("VmRSS:");
    parse(argc, argv);
    const int n = client_count();
    const std::int64_t cal_ns0 = mono_ns();
    const std::uint64_t cal_tick0 = ticks();

    // The allocator under test: libhoard.so if it is preloaded.
    auto write_prom = reinterpret_cast<WritePromFn>(
        ::dlsym(RTLD_DEFAULT, "_ZN5hoard22hoard_write_prometheusERSo"));
    auto stats = reinterpret_cast<StatsFn>(
        ::dlsym(RTLD_DEFAULT, "_ZN5hoard11hoard_statsEv"));
    const bool hoard = write_prom != nullptr && stats != nullptr;
    if (g_opt.trace && !hoard)
        die("--trace 1 needs libhoard.so preloaded");

    Mapped<Client> clients(static_cast<std::size_t>(n));
    Mapped<Mailbox> mailboxes(g_opt.workload == Workload::kv_churn ? n : 0);
    const int pairs = n / 2;
    Mapped<Pipe> pipes(g_opt.workload == Workload::xthread_pipeline ? pairs : 0);
    const std::size_t table_len =
        g_opt.workload == Workload::kv_churn        ? g_shape.kv_keys
        : g_opt.workload == Workload::large_buffers ? g_shape.pool
                                                    : 0;
    Mapped<Block> tables(table_len * static_cast<std::size_t>(n));
    Mapped<Pipe::Batch> batches(pipes.size() * g_shape.pipe_batches);
    Mapped<SpanRecord> spans(g_opt.trace ? kSpanRing * static_cast<std::size_t>(n) : 0);
    for (int i = 0; i < n; ++i) {
        Client& c = clients[static_cast<std::size_t>(i)];
        c.id = i;
        c.rng.s = g_opt.seed * 0x2545F4914F6CDD1Dull + static_cast<std::uint64_t>(i) + 1;
        if (table_len != 0)
            c.table = &tables[table_len * static_cast<std::size_t>(i)];
        if (g_opt.workload == Workload::kv_churn) {
            c.inbox = &mailboxes[static_cast<std::size_t>(i)];
            c.outbox = &mailboxes[static_cast<std::size_t>((i + 1) % n)];
        }
        if (g_opt.workload == Workload::xthread_pipeline) {
            Pipe& p = pipes[static_cast<std::size_t>(i / 2)];
            p.cap = g_shape.pipe_batches;
            p.ring = &batches[static_cast<std::size_t>(i / 2) * g_shape.pipe_batches];
            c.pipe = &p;
            c.producer = i % 2 == 0;
        }
        if (g_opt.trace)
            c.spans = &spans[kSpanRing * static_cast<std::size_t>(i)];
    }

    Books books;
    Mapped<char> prom_text(g_opt.trace ? std::size_t{8} << 20 : 0);
    FixedBuf prom_buf(prom_text.data(), prom_text.size());
    // Every Mapped above is resident now and stays so to the end; the
    // RSS figures are reported with this share taken out.
    const std::uint64_t driver_kib = proc_status_kib("VmRSS:") - base_kib;
    std::ostream prom_os(&prom_buf);
    rusage ru0{}, ru1{};
    if (g_opt.trace) {
        books.write_prom = write_prom;
        books.stats = stats;
        books.buf = &prom_buf;
        books.os = &prom_os;
        // Thread creation's one-time allocations (static TLS blocks,
        // the stack cache) settle in a throwaway round first, so the
        // begin/end readings bracket workload blocks only.
        std::thread warm[kMaxThreads];
        for (int i = 0; i < n; ++i)
            warm[i] = std::thread([] {});
        for (int i = 0; i < n; ++i)
            warm[i].join();
        books.read(0, "begin");
    }

    std::thread threads[kMaxThreads];
    for (int i = 0; i < n; ++i) {
        Client& c = clients[static_cast<std::size_t>(i)];
        threads[i] = std::thread([&c] {
            switch (g_opt.workload) {
            case Workload::kv_churn:
                kv_client(c);
                break;
            case Workload::xthread_pipeline:
                c.producer ? producer_client(c) : consumer_client(c);
                break;
            case Workload::large_buffers:
                large_client(c);
                break;
            }
        });
    }
    while (g_ready.load(std::memory_order_acquire) < n)
        ::sched_yield();
    const std::int64_t first_request_ns = mono_ns();
    const double setup_s =
        g_opt.t0_ns > 0 ? static_cast<double>(first_request_ns - g_opt.t0_ns) * 1e-9
                        : 0.0;
    if (g_opt.setup_only) {
        std::printf("{\"setup_s\": %.9f}\n", setup_s);
        std::fflush(stdout);
        ::_exit(0);  // the clients hold the warm-up fill; nothing to keep
    }
    if (g_opt.trace) {
        books.read(1, "start");
        ::getrusage(RUSAGE_SELF, &ru0);
    }
    // The warm-up fill only grows the live set, so its peak is the
    // exact sum now, with every client parked.
    std::int64_t peak_live = live_now(clients);
    const std::int64_t go_ns = mono_ns();
    g_go.store(true, std::memory_order_release);
    peak_live = std::max(peak_live, watch(clients, go_ns, g_opt.seconds));
    g_stop.store(true, std::memory_order_release);
    while (g_parked.load(std::memory_order_acquire) < n)
        ::sched_yield();
    const std::int64_t stop_ns = mono_ns();
    peak_live = std::max(peak_live, live_now(clients));
    if (g_opt.trace) {
        ::getrusage(RUSAGE_SELF, &ru1);
        books.read(2, "stop");
    }
    g_drain.store(true, std::memory_order_release);
    for (int i = 0; i < n; ++i)
        threads[i].join();
    const std::uint64_t retained_kib = proc_status_kib("VmRSS:");
    if (g_opt.trace)
        books.read(3, "end");
    const std::uint64_t peak_kib = proc_status_kib("VmHWM:");

    const std::int64_t cal_ns1 = mono_ns();
    const std::uint64_t cal_tick1 = ticks();
    const double ns_per_tick = static_cast<double>(cal_ns1 - cal_ns0) /
                               static_cast<double>(cal_tick1 - cal_tick0);

    std::uint64_t requests = 0, calls = 0, fail_null = 0, fail_content = 0,
                  fail_usable = 0, large = 0;
    for (int i = 0; i < n; ++i) {
        const Client& c = clients[static_cast<std::size_t>(i)];
        requests += c.requests.load(std::memory_order_relaxed);
        calls += c.calls;
        fail_null += c.fail_null;
        fail_content += c.fail_content;
        fail_usable += c.fail_usable;
        large += c.large_mallocs;
    }
    if (g_opt.trace)
        write_spans(clients, ns_per_tick, cal_tick0);

    const double timed_s = static_cast<double>(stop_ns - go_ns) * 1e-9;
    // Request latency over every client's samples of the whole run.
    LatencyHist& merged = clients[0].hist;
    for (int i = 1; i < n; ++i)
        merged.merge(clients[static_cast<std::size_t>(i)].hist);
    const double p50_us = merged.percentile(0.50) * ns_per_tick * 1e-3;
    const double p99_us = merged.percentile(0.99) * ns_per_tick * 1e-3;
    const std::uint64_t samples = merged.n;
    std::printf("{\"workload\": \"%s\", \"allocator\": \"%s\", \"threads\": %d, "
                "\"seed\": %" PRIu64 ", \"setup_s\": %.9f, \"timed_s\": %.9f, "
                "\"requests\": %" PRIu64 ", \"calls\": %" PRIu64 ", "
                "\"fail_null\": %" PRIu64 ", \"fail_content\": %" PRIu64 ", "
                "\"fail_usable\": %" PRIu64 ", \"large_mallocs\": %" PRIu64 ", "
                "\"peak_live_bytes\": %" PRId64 ", \"peak_rss_kib\": %" PRIu64 ", "
                "\"retained_rss_kib\": %" PRIu64 ", \"base_rss_kib\": %" PRIu64 ", "
                "\"driver_rss_kib\": %" PRIu64 ", \"ns_per_tick\": %.9f, "
                "\"p50_us\": %.6f, \"p99_us\": %.6f, \"samples\": %" PRIu64,
                g_opt.name, hoard ? "hoard" : "libc", n, g_opt.seed, setup_s,
                timed_s, requests, calls, fail_null, fail_content, fail_usable,
                large, peak_live, peak_kib, retained_kib, base_kib, driver_kib,
                ns_per_tick, p50_us, p99_us, samples);
    if (g_opt.trace) {
        std::printf(", \"minflt\": %ld, \"utime_s\": %.6f, \"stime_s\": %.6f",
                    ru1.ru_minflt - ru0.ru_minflt,
                    timeval_s(ru1.ru_utime) - timeval_s(ru0.ru_utime),
                    timeval_s(ru1.ru_stime) - timeval_s(ru0.ru_stime));
        static const char* const kPoint[] = {"begin", "start", "stop", "end"};
        std::printf(", \"stats\": {");
        for (int i = 0; i < 8; ++i) {
            const StatsReading& r = i % 2 == 0 ? books.pre[i / 2] : books.post[i / 2];
            std::printf("%s\"%s_%s\": {\"allocs\": %" PRIu64 ", \"frees\": %" PRIu64
                        ", \"huge_allocs\": %" PRIu64
                        ", \"superblock_allocs\": %" PRIu64
                        ", \"committed\": %" PRIu64
                        ", \"committed_peak\": %" PRIu64 "}",
                        i == 0 ? "" : ", ", i % 2 == 0 ? "pre" : "post",
                        kPoint[i / 2], r.allocs, r.frees, r.huge_allocs,
                        r.superblock_allocs, r.committed, r.committed_peak);
        }
        std::printf("}");
    }
    std::printf("}\n");
    return 0;
}
