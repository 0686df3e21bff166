#include "tracer.hh"

#include <ctime>
#include <fstream>
#include <thread>

#include "sim/json.hh"

namespace perfbench
{

namespace
{

std::int64_t
clockNs(clockid_t id)
{
    timespec ts{};
    ::clock_gettime(id, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1000000000
           + ts.tv_nsec;
}

/** Open spans of this thread, innermost last (indexes into the
 *  tracer's span vector; one tracer per process). */
thread_local std::vector<std::size_t> openStack;

unsigned
threadNumber()
{
    static std::mutex mu;
    static std::map<std::thread::id, unsigned> ids;
    std::lock_guard<std::mutex> lock(mu);
    return ids.emplace(std::this_thread::get_id(),
                       static_cast<unsigned>(ids.size()))
        .first->second;
}

} // namespace

std::int64_t wallNs() { return clockNs(CLOCK_MONOTONIC); }
std::int64_t threadCpuNs() { return clockNs(CLOCK_THREAD_CPUTIME_ID); }
std::int64_t processCpuNs() { return clockNs(CLOCK_PROCESS_CPUTIME_ID); }

Tracer::Scope::Scope(Tracer &tracer, std::string name) : owner(tracer)
{
    Span s;
    s.name = std::move(name);
    s.parent = openStack.empty()
                   ? -1
                   : static_cast<std::int64_t>(openStack.back());
    s.thread = threadNumber();
    cpuStart = threadCpuNs();
    s.startNs = wallNs();
    {
        std::lock_guard<std::mutex> lock(owner.mu);
        index = owner.recorded.size();
        owner.recorded.push_back(std::move(s));
    }
    openStack.push_back(index);
}

Tracer::Scope::~Scope()
{
    const std::int64_t end = wallNs();
    const std::int64_t cpu = threadCpuNs() - cpuStart;
    openStack.pop_back();
    std::lock_guard<std::mutex> lock(owner.mu);
    Span &s = owner.recorded[index];
    s.wallNs = end - s.startNs;
    s.cpuNs = cpu;
    if (s.parent >= 0)
        owner.recorded[static_cast<std::size_t>(s.parent)].childNs +=
            s.wallNs;
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mu);
    return recorded;
}

std::vector<double>
Tracer::wallMs(const std::string &name) const
{
    std::vector<double> out;
    std::lock_guard<std::mutex> lock(mu);
    for (const Span &s : recorded) {
        if (s.name == name)
            out.push_back(static_cast<double>(s.wallNs) / 1e6);
    }
    return out;
}

std::map<std::string, std::int64_t>
Tracer::selfNsByLayer() const
{
    std::map<std::string, std::int64_t> self;
    std::lock_guard<std::mutex> lock(mu);
    for (const Span &s : recorded)
        self[s.layer()] += s.selfNs();
    return self;
}

bool
Tracer::writeChromeJson(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    using triarch::json::Writer;
    Writer w(os);
    w.beginObject();
    w.key("traceEvents").beginArray();
    for (const Span &s : spans()) {
        w.beginObject(Writer::Style::Compact);
        w.member("name", s.name);
        w.member("cat", s.layer());
        w.member("ph", "X");
        w.member("ts", static_cast<double>(s.startNs - originNs) / 1e3);
        w.member("dur", static_cast<double>(s.wallNs) / 1e3);
        w.member("pid", 1);
        w.member("tid", s.thread);
        w.key("args").beginObject(Writer::Style::Compact);
        w.member("cpu_us", static_cast<double>(s.cpuNs) / 1e3);
        w.member("self_us", static_cast<double>(s.selfNs()) / 1e3);
        w.endObject();
        w.endObject();
    }
    w.endArray();
    w.endObject();
    w.finish();
    os << "\n";
    return os.good();
}

} // namespace perfbench
