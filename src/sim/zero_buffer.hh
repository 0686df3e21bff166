/**
 * @file
 * A zero-initialized byte buffer backed by a private anonymous
 * mapping. The machine models use tens of megabytes of it as global
 * DRAM, far more than any single workload touches. A fresh mapping
 * is zero by the kernel's guarantee and faults its pages in only
 * when the simulated program reaches them, so construction costs a
 * system call whatever the size.
 *
 * calloc does not give that here. glibc's mmap threshold is dynamic:
 * once a mapped chunk is freed, the threshold rises to its size (up
 * to a 32 MiB cap). The second and every later VIRAM machine (13 MiB
 * of DRAM) then gets a recycled heap chunk that calloc must clear
 * with a 13 MiB memset, which costs about ten times the fresh
 * mapping and keeps every page resident. Mapping directly keeps
 * every construction on the fresh-page path, and munmap returns the
 * pages when the machine is destroyed.
 *
 * No MADV_HUGEPAGE advice: it cuts the fault count of a DRAM walk,
 * but each touched 2 MiB page is cleared whole, and interleaved
 * benchmark pairs measured it slower on both the paper grid and
 * small configs, with a larger peak RSS (DESIGN.md D15).
 */

#ifndef TRIARCH_SIM_ZERO_BUFFER_HH
#define TRIARCH_SIM_ZERO_BUFFER_HH

#include <sys/mman.h>

#include <cstddef>
#include <cstdint>
#include <utility>

#include "sim/logging.hh"

namespace triarch
{

/** A fixed-size, lazily-faulted, zero-filled byte buffer. */
class ZeroBuffer
{
  public:
    explicit ZeroBuffer(std::size_t n) : bytes(n), buf(map(n)) {}

    ~ZeroBuffer()
    {
        if (buf != nullptr)
            ::munmap(buf, mappedBytes(bytes));
    }

    ZeroBuffer(const ZeroBuffer &) = delete;
    ZeroBuffer &operator=(const ZeroBuffer &) = delete;

    ZeroBuffer(ZeroBuffer &&other) noexcept
        : bytes(std::exchange(other.bytes, 0)),
          buf(std::exchange(other.buf, nullptr))
    {
    }

    std::uint8_t *data() { return buf; }
    const std::uint8_t *data() const { return buf; }
    std::size_t size() const { return bytes; }

  private:
    /** mmap rejects a zero length; an empty buffer maps one byte. */
    static std::size_t mappedBytes(std::size_t n) { return n ? n : 1; }

    static std::uint8_t *
    map(std::size_t n)
    {
        void *p = ::mmap(nullptr, mappedBytes(n),
                         PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (p == MAP_FAILED)
            triarch_fatal("failed to map ", n, " byte buffer");
        return static_cast<std::uint8_t *>(p);
    }

    std::size_t bytes;
    std::uint8_t *buf;
};

} // namespace triarch

#endif // TRIARCH_SIM_ZERO_BUFFER_HH
