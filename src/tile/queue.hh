/**
 * @file
 * Circular FIFO queues carved out of the tile scratchpad.
 *
 * "The queues are implemented as circular FIFOs using the scratchpad.
 * Queue sizes are configured at runtime based on the number of entries
 * specified next to the task declaration" (Sec. III-E). An entry is one
 * task invocation: `entryWords` machine words.
 *
 * capacity(), full(), the watermarks and storageBytes() model that
 * scratchpad queue. The host only stores what the queue holds: its
 * ring starts empty, is allocated on the first push and doubles
 * whenever a push finds every slot taken, so a queue that never holds
 * more than a few entries costs a few entries of host memory.
 */

#ifndef DALOREX_TILE_QUEUE_HH
#define DALOREX_TILE_QUEUE_HH

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"
#include "noc/message.hh"

namespace dalorex
{

/**
 * The FIFO both queue kinds share: up to `capacity` entries of
 * `stride` elements of T, on a host ring of a power-of-two slot count
 * (indexed with a mask). The ring grows from minSlots by doubling and
 * so never exceeds the power of two at or above the capacity.
 */
template <typename T>
class RingFifo
{
  public:
    /** Slots of the first ring (fewer when the capacity is smaller). */
    static constexpr std::uint32_t minSlots = 4;

    std::uint32_t capacity() const { return capacity_; }
    std::uint32_t count() const { return count_; }
    std::uint32_t freeEntries() const { return capacity_ - count_; }
    bool empty() const { return count_ == 0; }
    bool full() const { return count_ == capacity_; }

    /** Occupancy as a fraction of capacity (TSU priority sensor). */
    double
    occupancy() const
    {
        return static_cast<double>(count_) / capacity_;
    }

    /** Host ring slots allocated so far: 0 before the first push. */
    std::uint32_t hostSlots() const { return slots_; }

  protected:
    /** Empty the queue, drop its ring and set its shape. */
    void
    reset(std::uint32_t stride, std::uint32_t capacity)
    {
        panic_if(capacity == 0, "queue capacity must be positive");
        stride_ = stride;
        capacity_ = capacity;
        data_ = {};
        slots_ = head_ = count_ = 0;
    }

    /** Claim the tail slot for one new entry; the caller fills it. */
    T*
    pushSlot()
    {
        if (count_ == slots_)
            grow();
        T* slot =
            &data_[std::size_t((head_ + count_) & (slots_ - 1)) * stride_];
        ++count_;
        return slot;
    }

    const T*
    headSlot() const
    {
        return &data_[std::size_t(head_) * stride_];
    }

    void
    popSlot()
    {
        head_ = (head_ + 1) & (slots_ - 1);
        --count_;
    }

  private:
    /** Allocate the first ring or double a full one, unrolled so the
     *  oldest entry lands in slot 0. Callers never grow a full queue,
     *  so slots_ < capacity_ here. */
    void
    grow()
    {
        const std::uint32_t slots =
            slots_ == 0 ? std::min(minSlots, std::bit_ceil(capacity_))
                        : 2 * slots_;
        std::vector<T> data(std::size_t(slots) * stride_);
        std::rotate_copy(data_.begin(),
                         data_.begin() + std::size_t(head_) * stride_,
                         data_.end(), data.begin());
        data_.swap(data);
        slots_ = slots;
        head_ = 0;
    }

    std::vector<T> data_;
    std::uint32_t stride_ = 0;
    std::uint32_t capacity_ = 0;
    std::uint32_t slots_ = 0;
    std::uint32_t head_ = 0;
    std::uint32_t count_ = 0;
};

/** A FIFO of fixed-width word entries (task input queues). */
class WordQueue : public RingFifo<Word>
{
  public:
    /** Size the queue: `capacity` entries of `entry_words` words. */
    void
    init(std::uint32_t entry_words, std::uint32_t capacity)
    {
        panic_if(entry_words == 0 || entry_words > maxMsgWords,
                 "queue entry width out of range: ", entry_words);
        reset(entry_words, capacity);
        entryWords_ = entry_words;
    }

    std::uint32_t entryWords() const { return entryWords_; }

    /**
     * Set the "nearly full" watermark in entries. The TSU compares
     * integer counts in its scheduling hot path instead of occupancy
     * fractions.
     */
    void setHighMark(std::uint32_t mark) { highMark_ = mark; }

    /** True when occupancy has reached the high watermark. */
    bool nearlyFull() const { return count() >= highMark_; }

    /** Scratchpad bytes this queue occupies. */
    std::uint32_t
    storageBytes() const
    {
        return entryWords_ * capacity() * wordBytes;
    }

    /** Append one entry of entryWords() words. panic() when full. */
    void
    push(const Word* words)
    {
        panic_if(full(), "push to full queue");
        std::copy_n(words, entryWords_, pushSlot());
    }

    /** Pointer to the oldest entry (Listing 1's peek). */
    const Word*
    front() const
    {
        panic_if(empty(), "front of empty queue");
        return headSlot();
    }

    /** Drop the oldest entry (Listing 1's pop). */
    void
    pop()
    {
        panic_if(empty(), "pop of empty queue");
        popSlot();
    }

  private:
    std::uint32_t entryWords_ = 0;
    std::uint32_t highMark_ = ~std::uint32_t(0);
};

/** A FIFO of encoded outbound messages (channel queues). */
class MsgQueue : public RingFifo<Message>
{
  public:
    /** Size the queue to `capacity` messages of `entry_words` words. */
    void
    init(std::uint32_t entry_words, std::uint32_t capacity)
    {
        reset(1, capacity);
        entryWords_ = entry_words;
    }

    /** Set the "nearly empty" watermark in entries. */
    void setLowMark(std::uint32_t mark) { lowMark_ = mark; }

    /** True when occupancy is at or below the low watermark. */
    bool nearlyEmpty() const { return count() <= lowMark_; }

    std::uint32_t
    storageBytes() const
    {
        return entryWords_ * capacity() * wordBytes;
    }

    void
    push(const Message& msg)
    {
        panic_if(full(), "push to full channel queue");
        *pushSlot() = msg;
    }

    const Message&
    front() const
    {
        panic_if(empty(), "front of empty channel queue");
        return *headSlot();
    }

    void
    pop()
    {
        panic_if(empty(), "pop of empty channel queue");
        popSlot();
    }

  private:
    std::uint32_t entryWords_ = 0;
    std::uint32_t lowMark_ = 0;
};

} // namespace dalorex

#endif // DALOREX_TILE_QUEUE_HH
