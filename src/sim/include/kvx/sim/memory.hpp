// Byte-addressable data memory for the simulated processor.
#pragma once

#include <memory>
#include <span>

#include "kvx/common/types.hpp"

namespace kvx::sim {

/// Simple flat RAM with bounds-checked accessors. All accesses throw
/// kvx::SimError when they fall outside the configured size. Alignment is
/// enforced for 16/32/64-bit accesses (the Ibex core has no misaligned
/// access support and the vector LSU transfers whole elements).
class Memory {
 public:
  explicit Memory(usize size_bytes);

  [[nodiscard]] usize size() const noexcept { return size_; }

  [[nodiscard]] u8 read8(u32 addr) const;
  [[nodiscard]] u16 read16(u32 addr) const;
  [[nodiscard]] u32 read32(u32 addr) const;
  [[nodiscard]] u64 read64(u32 addr) const;

  void write8(u32 addr, u8 value);
  void write16(u32 addr, u16 value);
  void write32(u32 addr, u32 value);
  void write64(u32 addr, u64 value);

  /// Generic element access used by the vector LSU (width in bits).
  [[nodiscard]] u64 read_element(u32 addr, unsigned width_bits) const;
  void write_element(u32 addr, unsigned width_bits, u64 value);

  /// Bulk copy in/out (host-side data staging; not cycle-accounted).
  void write_block(u32 addr, std::span<const u8> data);
  void read_block(u32 addr, std::span<u8> out) const;

  /// Constant-stride element transfer: element i (`width_bytes` wide) lives
  /// at addr + i·stride and at byte i·width_bytes of the packed `out`/`data`
  /// span. Elements move in ascending order, like the per-element vector
  /// LSU path, but the whole address span is bounds- and alignment-checked
  /// once instead of per element.
  void read_strided(u32 addr, u32 stride, unsigned width_bytes,
                    std::span<u8> out) const;
  void write_strided(u32 addr, u32 stride, unsigned width_bytes,
                     std::span<const u8> data);

  /// Zero all bytes.
  void clear() noexcept;

 private:
  void check(u32 addr, usize len, unsigned align) const;
  /// Span check of a strided transfer; returns the element count.
  usize check_strided(u32 addr, u32 stride, unsigned width_bytes,
                      usize bytes) const;

  struct Release {
    usize bytes = 0;
    void operator()(u8* p) const noexcept;
  };
  /// Lazily zeroed pages straight from the OS (anonymous mmap where
  /// available), not a value-initialized heap vector: a processor pays page
  /// faults only for the bytes its program touches, never a 1 MiB memset
  /// per construction, and its cost does not depend on how the heap
  /// happens to be laid out.
  std::unique_ptr<u8[], Release> bytes_;
  usize size_ = 0;
};

}  // namespace kvx::sim
