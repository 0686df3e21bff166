/**
 * @file
 * The traced run's span recorder. Spans are opened by the benchmark's
 * own code around calls into a triarch module, kept in memory, and
 * written out once as Chrome trace-event JSON when the run ends. A
 * span's layer is its name up to the first '.', which is the module
 * it calls into ("raw.ct.run" -> raw). Every span records wall and
 * thread CPU time; nesting is per thread.
 */

#ifndef PERFBENCH_TRACER_HH
#define PERFBENCH_TRACER_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench
{

/** Monotonic wall clock in ns. */
std::int64_t wallNs();

/** CPU time of the calling thread in ns. */
std::int64_t threadCpuNs();

/** CPU time of the whole process in ns. */
std::int64_t processCpuNs();

struct Span
{
    std::string name;
    std::int64_t startNs = 0;
    std::int64_t wallNs = 0;
    std::int64_t cpuNs = 0;
    /** Wall time of the direct children (same thread, nested). */
    std::int64_t childNs = 0;
    /** Index of the enclosing span, or -1 for a root. */
    std::int64_t parent = -1;
    unsigned thread = 0;

    std::string layer() const { return name.substr(0, name.find('.')); }
    std::int64_t selfNs() const { return wallNs - childNs; }
};

class Tracer
{
  public:
    /** RAII span; closes at scope exit. */
    class Scope
    {
      public:
        Scope(Tracer &tracer, std::string name);
        ~Scope();

        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer &owner;
        std::size_t index;
        std::int64_t cpuStart;
    };

    Scope span(std::string name) { return Scope(*this, std::move(name)); }

    /** Snapshot of every closed or open span, in open order. */
    std::vector<Span> spans() const;

    /** Wall durations in ms of every span named @p name. */
    std::vector<double> wallMs(const std::string &name) const;

    /** Summed self time per layer, in ns. */
    std::map<std::string, std::int64_t> selfNsByLayer() const;

    /** Write Chrome trace-event JSON; false if the file fails. */
    bool writeChromeJson(const std::string &path) const;

  private:
    mutable std::mutex mu;
    std::vector<Span> recorded;     //!< guarded by mu
    std::int64_t originNs = wallNs();
};

} // namespace perfbench

#endif // PERFBENCH_TRACER_HH
