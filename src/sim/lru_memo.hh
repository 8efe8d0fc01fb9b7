/**
 * @file
 * A small process-wide memo of immutable values, most recently used
 * first, with in-flight deduplication.
 *
 * The first caller to ask for a missing key builds the value on its
 * own thread, outside the lock; callers asking for the same key
 * meanwhile wait for that one build instead of starting their own.
 * A build that throws delivers the exception to every waiter and
 * leaves nothing memoized, so the next caller builds afresh.
 */

#ifndef SIPT_SIM_LRU_MEMO_HH
#define SIPT_SIM_LRU_MEMO_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <future>
#include <memory>
#include <mutex>
#include <vector>

namespace sipt::sim
{

/**
 * Memo from Key (equality-comparable) to an immutable Value, holding
 * at most @c capacity entries. Values are handed out as shared
 * pointers, so an entry evicted while in use lives on with its
 * users.
 */
template <typename Key, typename Value>
class LruMemo
{
  public:
    using Ptr = std::shared_ptr<const Value>;

    explicit LruMemo(std::size_t capacity) : capacity_(capacity) {}

    LruMemo(const LruMemo &) = delete;
    LruMemo &operator=(const LruMemo &) = delete;

    /**
     * @p key's value; when absent, build() (returning a Value) makes
     * it on this thread. Rethrows whatever the build threw.
     */
    template <typename Build>
    Ptr
    get(const Key &key, Build &&build)
    {
        std::promise<Ptr> promise;
        std::shared_future<Ptr> future;
        std::uint64_t ticket = 0;
        {
            std::lock_guard lock(mu_);
            const auto it = std::find_if(
                entries_.begin(), entries_.end(),
                [&](const Entry &e) { return e.key == key; });
            if (it != entries_.end()) {
                std::rotate(entries_.begin(), it, it + 1);
                future = entries_.front().value;
            } else {
                future = promise.get_future().share();
                ticket = ++builds_;
                entries_.insert(entries_.begin(),
                                Entry{key, future, ticket});
                if (entries_.size() > capacity_)
                    entries_.pop_back();
            }
        }
        if (ticket == 0)
            return future.get();
        try {
            promise.set_value(
                std::make_shared<const Value>(build()));
        } catch (...) {
            forget(ticket);
            promise.set_exception(std::current_exception());
        }
        return future.get();
    }

    /** Builds started so far, failed ones included. */
    std::uint64_t
    builds() const
    {
        std::lock_guard lock(mu_);
        return builds_;
    }

  private:
    struct Entry
    {
        Key key;
        std::shared_future<Ptr> value;
        /** Which build fills @c value. */
        std::uint64_t ticket;
    };

    /** Drop the entry of build @p ticket, if still present. */
    void
    forget(std::uint64_t ticket)
    {
        std::lock_guard lock(mu_);
        const auto it = std::find_if(
            entries_.begin(), entries_.end(),
            [&](const Entry &e) { return e.ticket == ticket; });
        if (it != entries_.end())
            entries_.erase(it);
    }

    const std::size_t capacity_;
    mutable std::mutex mu_;
    std::vector<Entry> entries_;
    std::uint64_t builds_ = 0;
};

} // namespace sipt::sim

#endif // SIPT_SIM_LRU_MEMO_HH
