// Messages in the CONGEST model.
//
// The model allows O(log n) bits per edge per round. We quantize: a Message
// is at most kMaxMessageWords machine words (a "word" stands for an O(log n)
// bit field such as a vertex id, an edge id, or a small counter), and the
// network enforces a per-round, per-direction token budget on every edge.
//
// Storage is allocation-free on the CONGEST hot path: a WordBuffer keeps up
// to kMaxMessageWords words inline in a std::array and only spills to the
// heap beyond that. Spilling is legal — the LOCAL-model baselines
// (enforce_bandwidth == false) deliberately send unbounded messages to
// exhibit the LOCAL–CONGEST gap, and oversized messages must exist long
// enough for the bandwidth-enforcing path to reject them with
// CongestionError::Kind::kMessageSize.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <initializer_list>
#include <type_traits>
#include <vector>

namespace ecd::congest {

// Four payload fields plus one routing header (token id) — still O(log n)
// bits total.
inline constexpr int kMaxMessageWords = 5;

// Well-known message tags used by the primitives layer for traffic
// attribution in the trace layer (src/congest/trace.h). Tags are metadata
// of the simulation, not payload: they do not count against the word
// budget (a real implementation would infer them from the protocol state).
// Algorithms may use their own values at kTagUserBase and above.
enum MsgTag : int {
  kTagDefault = 0,
  kTagElection = 1,
  kTagBfs = 2,
  kTagOrientation = 3,
  kTagWalkToken = 4,
  kTagBroadcast = 5,
  kTagConvergecast = 6,
  kTagDiameter = 7,
  kTagTreeToken = 8,
  kTagWalkAck = 9,
  kTagReturnReply = 10,
  kTagUserBase = 64,
};

const char* tag_name(int tag);

// Small-buffer word storage with (most of) the std::vector<int64_t>
// interface the algorithm layer was written against. Words live inline
// while size() <= kMaxMessageWords; the first push beyond that moves the
// whole contents into the heap spill (and clear() moves back, retaining
// spill capacity so a reused buffer never reallocates).
class WordBuffer {
 public:
  WordBuffer() = default;
  WordBuffer(std::initializer_list<std::int64_t> init) {
    assign(init.begin(), init.end());
  }
  // Implicit on purpose: lets `m.words = payload_vector` and
  // `Message{payload_vector, tag}` call sites migrate mechanically.
  WordBuffer(const std::vector<std::int64_t>& words) {
    assign(words.begin(), words.end());
  }

  WordBuffer(const WordBuffer&) = default;
  WordBuffer& operator=(const WordBuffer&) = default;
  // Moves reset the source to empty: the default would leave a spilled
  // source claiming a size its (moved-out) spill no longer backs.
  WordBuffer(WordBuffer&& other) noexcept
      : inline_(other.inline_),
        size_(other.size_),
        spill_(std::move(other.spill_)) {
    other.size_ = 0;
  }
  WordBuffer& operator=(WordBuffer&& other) noexcept {
    inline_ = other.inline_;
    size_ = other.size_;
    spill_ = std::move(other.spill_);
    other.size_ = 0;
    return *this;
  }

  int size() const { return size_; }
  bool empty() const { return size_ == 0; }

  const std::int64_t* data() const {
    return spilled() ? spill_.data() : inline_.data();
  }
  std::int64_t* data() { return spilled() ? spill_.data() : inline_.data(); }
  const std::int64_t* begin() const { return data(); }
  const std::int64_t* end() const { return data() + size_; }
  std::int64_t* begin() { return data(); }
  std::int64_t* end() { return data() + size_; }

  const std::int64_t& operator[](int i) const {
    assert(i >= 0 && i < size_);
    return data()[i];
  }
  std::int64_t& operator[](int i) {
    assert(i >= 0 && i < size_);
    return data()[i];
  }

  void clear() {
    size_ = 0;
    spill_.clear();  // keeps capacity: no realloc when this buffer respills
  }

  // Pre-sizes the spill when the final size is known to exceed the inline
  // capacity; a no-op otherwise (inline storage needs no reservation).
  void reserve(std::size_t capacity) {
    if (capacity > static_cast<std::size_t>(kMaxMessageWords)) {
      spill_.reserve(capacity);
    }
  }

  void push_back(std::int64_t word) {
    if (size_ < kMaxMessageWords) {
      inline_[size_++] = word;
      return;
    }
    if (size_ == kMaxMessageWords && spill_.empty()) {
      spill_.assign(inline_.begin(), inline_.end());
    }
    spill_.push_back(word);
    ++size_;
  }

  template <typename It,
            typename = std::enable_if_t<!std::is_integral_v<It>>>
  void assign(It first, It last) {
    clear();
    for (; first != last; ++first) push_back(*first);
  }
  void assign(std::size_t count, std::int64_t value) {
    clear();
    reserve(count);
    for (std::size_t i = 0; i < count; ++i) push_back(value);
  }

  // Append-only insert (pos must be end()): the one shape the call sites
  // use; a general splice has no place on the message hot path.
  template <typename It>
  void insert(const std::int64_t* pos, It first, It last) {
    assert(pos == static_cast<const std::int64_t*>(end()));
    (void)pos;
    for (; first != last; ++first) push_back(*first);
  }

  WordBuffer& operator=(const std::vector<std::int64_t>& words) {
    assign(words.begin(), words.end());
    return *this;
  }

  friend bool operator==(const WordBuffer& a, const WordBuffer& b) {
    if (a.size_ != b.size_) return false;
    for (int i = 0; i < a.size_; ++i) {
      if (a.data()[i] != b.data()[i]) return false;
    }
    return true;
  }

 private:
  bool spilled() const { return size_ > kMaxMessageWords; }

  std::array<std::int64_t, kMaxMessageWords> inline_;
  std::int32_t size_ = 0;
  std::vector<std::int64_t> spill_;
};

struct Message {
  WordBuffer words;
  int tag = kTagDefault;

  int size_words() const { return words.size(); }
};

// The parallel round loop (network.cpp) moves Messages into mailbox
// slots, and moves a port's run when its chunk grows, from worker
// threads; a throwing move would unwind across the shard barrier.
// WordBuffer's hand-written moves are noexcept, and this pins the
// composite.
static_assert(std::is_nothrow_move_constructible_v<Message> &&
              std::is_nothrow_move_assignable_v<Message>);

}  // namespace ecd::congest
