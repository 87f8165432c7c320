#include "core/magazine.h"

#include <condition_variable>
#include <mutex>
#include <new>

#include "os/meta_arena.h"
#include "os/page_provider.h"

namespace hoard {
namespace detail {

namespace {

/** One live-allocator record; pooled, recycled on unregister. */
struct LiveRec
{
    std::uint64_t id;
    std::uint32_t busy;  ///< exit flushes currently inside flush_fn
    LiveRec* next;
};

/**
 * Registry and metadata pool state.  Leaked-immortal (placement-new'd
 * into static storage, never destroyed) so exit hooks running during
 * process teardown always find it alive, and so constructing it never
 * calls the allocator it serves.  The arena maps through its own
 * provider: the pool's pages are process metadata, not part of any
 * allocator's footprint.
 *
 * Critical sections under the mutex are pointer ops and, rarely, one
 * arena chunk map — never a policy mutex: a flush_fn call takes policy
 * mutexes, and under SimPolicy a policy mutex can suspend the calling
 * fiber.  Suspending while holding this process mutex would let a
 * second exiting fiber block the one OS thread the whole simulation
 * runs on — so liveness is instead a busy refcount: the hook pins the
 * record, drops the mutex, flushes, then unpins.
 */
struct Registry
{
    std::mutex mutex;
    std::condition_variable cv;
    os::MmapPageProvider provider;
    os::MetaArena arena{provider};
    LiveRec* live = nullptr;
    std::uint64_t next_id = 1;
    LiveRec* free_recs = nullptr;
    MagazineNode* free_nodes = nullptr;  ///< linked by next_in_thread
    MagazineShard* free_shards = nullptr;
};

Registry&
registry()
{
    alignas(Registry) static unsigned char storage[sizeof(Registry)];
    static Registry* r = new (storage) Registry;
    return *r;
}

LiveRec*
find_locked(Registry& reg, std::uint64_t id)
{
    for (LiveRec* r = reg.live; r != nullptr; r = r->next) {
        if (r->id == id)
            return r;
    }
    return nullptr;
}

/** Node storage is whole cache lines: two threads' nodes, written on
    every fast-path op, never share one. */
constexpr std::size_t kNodeAlign = 64;

std::size_t
node_bytes(std::uint32_t num_classes)
{
    std::size_t bytes = sizeof(MagazineNode) +
                        static_cast<std::size_t>(num_classes) *
                            sizeof(MagazineNode::Magazine);
    return (bytes + kNodeAlign - 1) & ~(kNodeAlign - 1);
}

/** First pooled node with room for @p num_classes, unlinked; else
    fresh arena storage.  Caller holds the registry mutex. */
void*
node_storage_locked(Registry& reg, std::uint32_t num_classes,
                    std::uint32_t* capacity)
{
    for (MagazineNode** p = &reg.free_nodes; *p != nullptr;
         p = &(*p)->next_in_thread) {
        MagazineNode* node = *p;
        if (node->capacity >= num_classes) {
            *p = node->next_in_thread;
            *capacity = node->capacity;
            return node;
        }
    }
    *capacity = num_classes;
    return reg.arena.allocate(node_bytes(num_classes), kNodeAlign);
}

}  // namespace

MagazineNode*
magazine_node_new(std::uint32_t num_classes)
{
    Registry& reg = registry();
    void* mem;
    std::uint32_t capacity;
    {
        std::lock_guard<std::mutex> guard(reg.mutex);
        mem = node_storage_locked(reg, num_classes, &capacity);
    }
    if (mem == nullptr)
        return nullptr;
    auto* node = new (mem) MagazineNode();
    node->num_classes = num_classes;
    node->capacity = capacity;
    node->mags = reinterpret_cast<MagazineNode::Magazine*>(node + 1);
    for (std::uint32_t i = 0; i < num_classes; ++i)
        new (&node->mags[i]) MagazineNode::Magazine();
    return node;
}

void
magazine_node_free(MagazineNode* node)
{
    Registry& reg = registry();
    std::lock_guard<std::mutex> guard(reg.mutex);
    node->next_in_thread = reg.free_nodes;
    reg.free_nodes = node;
}

MagazineShard*
magazine_shard_new()
{
    Registry& reg = registry();
    void* mem;
    {
        std::lock_guard<std::mutex> guard(reg.mutex);
        mem = reg.free_shards;
        if (mem != nullptr)
            reg.free_shards = reg.free_shards->next;
        else
            mem = reg.arena.allocate(sizeof(MagazineShard),
                                     alignof(MagazineShard));
    }
    if (mem == nullptr)
        return nullptr;
    return new (mem) MagazineShard();
}

void
magazine_shards_free(MagazineShard* shards)
{
    if (shards == nullptr)
        return;
    MagazineShard* tail = shards;
    while (tail->next != nullptr)
        tail = tail->next;
    Registry& reg = registry();
    std::lock_guard<std::mutex> guard(reg.mutex);
    tail->next = reg.free_shards;
    reg.free_shards = shards;
}

std::uint64_t
magazine_register_allocator()
{
    Registry& reg = registry();
    std::lock_guard<std::mutex> guard(reg.mutex);
    LiveRec* rec = reg.free_recs;
    if (rec != nullptr) {
        reg.free_recs = rec->next;
    } else {
        rec = static_cast<LiveRec*>(
            reg.arena.allocate(sizeof(LiveRec), alignof(LiveRec)));
        if (rec == nullptr)
            return 0;  // caller treats 0 as "caching unavailable"
    }
    rec->id = reg.next_id++;
    rec->busy = 0;
    rec->next = reg.live;
    reg.live = rec;
    return rec->id;
}

void
magazine_unregister_allocator(std::uint64_t id)
{
    if (id == 0)
        return;
    Registry& reg = registry();
    std::unique_lock<std::mutex> lock(reg.mutex);
    for (LiveRec** p = &reg.live; *p != nullptr; p = &(*p)->next) {
        if ((*p)->id == id) {
            LiveRec* dead = *p;
            *p = dead->next;
            // Unlinked: no new exit flush can pin this allocator.  An
            // exit flush already inside flush_fn still holds a pin;
            // wait it out before letting the destructor proceed.
            reg.cv.wait(lock, [dead] { return dead->busy == 0; });
            dead->next = reg.free_recs;
            reg.free_recs = dead;
            return;
        }
    }
}

void
magazine_registry_prepare_fork()
{
    registry().mutex.lock();
}

void
magazine_registry_parent_after_fork()
{
    registry().mutex.unlock();
}

void
magazine_registry_child_after_fork()
{
    // The forking thread owns the mutex (prepare handler); holding it
    // across fork() guarantees no record, pool list or arena chunk was
    // mid-mutation.  Exit flushes that were pinned in the parent
    // belong to threads that do not exist in the child — drop their
    // pins so unregister never waits on them.
    Registry& reg = registry();
    for (LiveRec* r = reg.live; r != nullptr; r = r->next)
        r->busy = 0;
    reg.mutex.unlock();
}

void
magazine_thread_exit(void* head)
{
    if (head == nullptr)
        return;
    Registry& reg = registry();
    auto* first = static_cast<MagazineNode*>(head);
    MagazineNode* last = first;
    for (MagazineNode* node = first; node != nullptr;
         node = node->next_in_thread) {
        last = node;
        if (node->flush_fn == nullptr)
            continue;
        LiveRec* rec;
        {
            std::lock_guard<std::mutex> guard(reg.mutex);
            rec = find_locked(reg, node->allocator_id);
            if (rec == nullptr)
                continue;  // allocator already destroyed; just recycle
            ++rec->busy;
        }
        // The pin (busy > 0) is what keeps `node->allocator` alive
        // here: a racing destructor waits in unregister until it drops.
        node->flush_fn(node->allocator, node);
        {
            std::lock_guard<std::mutex> guard(reg.mutex);
            --rec->busy;
        }
        reg.cv.notify_all();
    }
    std::lock_guard<std::mutex> guard(reg.mutex);
    last->next_in_thread = reg.free_nodes;
    reg.free_nodes = first;
}

}  // namespace detail
}  // namespace hoard
