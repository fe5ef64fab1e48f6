#include "kvx/sim/memory.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <new>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/mman.h>
#define KVX_MEMORY_MMAP 1
#else
#define KVX_MEMORY_MMAP 0
#endif

#include "kvx/common/error.hpp"
#include "kvx/common/strings.hpp"

namespace kvx::sim {

namespace {

/// Zeroed storage whose pages are materialized on first touch.
u8* allocate_zeroed(usize bytes) {
#if KVX_MEMORY_MMAP
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  return static_cast<u8*>(p);
#else
  void* p = std::calloc(bytes, 1);
  if (p == nullptr) throw std::bad_alloc();
  return static_cast<u8*>(p);
#endif
}

}  // namespace

void Memory::Release::operator()(u8* p) const noexcept {
#if KVX_MEMORY_MMAP
  ::munmap(p, bytes);
#else
  std::free(p);
#endif
}

Memory::Memory(usize size_bytes)
    : bytes_(allocate_zeroed(std::max<usize>(size_bytes, 1)),
             Release{std::max<usize>(size_bytes, 1)}),
      size_(size_bytes) {}

void Memory::check(u32 addr, usize len, unsigned align) const {
  if (static_cast<usize>(addr) + len > size_) {
    throw SimError(strfmt("memory access 0x%08x+%zu out of bounds (size 0x%zx)",
                          addr, len, size_));
  }
  if (align > 1 && addr % align != 0) {
    throw SimError(strfmt("misaligned %u-byte access at 0x%08x",
                          static_cast<unsigned>(len), addr));
  }
}

u8 Memory::read8(u32 addr) const {
  check(addr, 1, 1);
  return bytes_[addr];
}

u16 Memory::read16(u32 addr) const {
  check(addr, 2, 2);
  u16 v;
  std::memcpy(&v, bytes_.get() + addr, 2);
  return v;
}

u32 Memory::read32(u32 addr) const {
  check(addr, 4, 4);
  u32 v;
  std::memcpy(&v, bytes_.get() + addr, 4);
  return v;
}

u64 Memory::read64(u32 addr) const {
  check(addr, 8, 8);
  u64 v;
  std::memcpy(&v, bytes_.get() + addr, 8);
  return v;
}

void Memory::write8(u32 addr, u8 value) {
  check(addr, 1, 1);
  bytes_[addr] = value;
}

void Memory::write16(u32 addr, u16 value) {
  check(addr, 2, 2);
  std::memcpy(bytes_.get() + addr, &value, 2);
}

void Memory::write32(u32 addr, u32 value) {
  check(addr, 4, 4);
  std::memcpy(bytes_.get() + addr, &value, 4);
}

void Memory::write64(u32 addr, u64 value) {
  check(addr, 8, 8);
  std::memcpy(bytes_.get() + addr, &value, 8);
}

u64 Memory::read_element(u32 addr, unsigned width_bits) const {
  switch (width_bits) {
    case 8: return read8(addr);
    case 16: return read16(addr);
    case 32: return read32(addr);
    case 64: return read64(addr);
    default:
      throw SimError(strfmt("bad element width %u", width_bits));
  }
}

void Memory::write_element(u32 addr, unsigned width_bits, u64 value) {
  switch (width_bits) {
    case 8: write8(addr, static_cast<u8>(value)); return;
    case 16: write16(addr, static_cast<u16>(value)); return;
    case 32: write32(addr, static_cast<u32>(value)); return;
    case 64: write64(addr, value); return;
    default:
      throw SimError(strfmt("bad element width %u", width_bits));
  }
}

void Memory::write_block(u32 addr, std::span<const u8> data) {
  check(addr, data.size(), 1);
  std::memcpy(bytes_.get() + addr, data.data(), data.size());
}

void Memory::read_block(u32 addr, std::span<u8> out) const {
  check(addr, out.size(), 1);
  std::memcpy(out.data(), bytes_.get() + addr, out.size());
}

usize Memory::check_strided(u32 addr, u32 stride, unsigned width_bytes,
                            usize bytes) const {
  if (width_bytes != 1 && width_bytes != 2 && width_bytes != 4 &&
      width_bytes != 8) {
    throw SimError(strfmt("bad element width %u", width_bytes * 8));
  }
  if (bytes % width_bytes != 0) {
    throw SimError("strided transfer is not a whole number of elements");
  }
  const usize n = bytes / width_bytes;
  if (n == 0) return 0;
  if (stride % width_bytes != 0) {
    throw SimError(strfmt("misaligned stride %u for %u-byte elements", stride,
                          width_bytes));
  }
  const u64 span = u64{stride} * (n - 1) + width_bytes;
  if (span > size_) {
    throw SimError(strfmt("memory access 0x%08x+%llu out of bounds (size "
                          "0x%zx)",
                          addr, static_cast<unsigned long long>(span), size_));
  }
  check(addr, static_cast<usize>(span), width_bytes);
  return n;
}

namespace {

/// Fixed-width copy loop: a constant memcpy size compiles to one move.
template <usize W>
void copy_strided(u8* dst, usize dst_step, const u8* src, usize src_step,
                  usize n) noexcept {
  for (usize i = 0; i < n; ++i) {
    std::memcpy(dst + i * dst_step, src + i * src_step, W);
  }
}

void copy_strided(unsigned width, u8* dst, usize dst_step, const u8* src,
                  usize src_step, usize n) noexcept {
  switch (width) {
    case 8: copy_strided<8>(dst, dst_step, src, src_step, n); break;
    case 4: copy_strided<4>(dst, dst_step, src, src_step, n); break;
    case 2: copy_strided<2>(dst, dst_step, src, src_step, n); break;
    default: copy_strided<1>(dst, dst_step, src, src_step, n); break;
  }
}

}  // namespace

void Memory::read_strided(u32 addr, u32 stride, unsigned width_bytes,
                          std::span<u8> out) const {
  const usize n = check_strided(addr, stride, width_bytes, out.size());
  copy_strided(width_bytes, out.data(), width_bytes, bytes_.get() + addr,
               stride, n);
}

void Memory::write_strided(u32 addr, u32 stride, unsigned width_bytes,
                           std::span<const u8> data) {
  const usize n = check_strided(addr, stride, width_bytes, data.size());
  copy_strided(width_bytes, bytes_.get() + addr, stride, data.data(),
               width_bytes, n);
}

void Memory::clear() noexcept { std::memset(bytes_.get(), 0, size_); }

}  // namespace kvx::sim
