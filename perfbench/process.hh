/**
 * @file
 * Child processes of the benchmark. Set-up time is measured from the
 * spawn of a process until it is ready for its first timed operation:
 * secondsUntilReady() for the harness itself, Daemon::start() for
 * triarchd.
 */

#ifndef PERFBENCH_PROCESS_HH
#define PERFBENCH_PROCESS_HH

#include <memory>
#include <string>
#include <sys/types.h>
#include <vector>

namespace perfbench
{

/**
 * Spawn @p argv (argv[0] is the binary) and return the wall seconds
 * until it writes its first line to stdout; the child is then reaped.
 * A negative value means the child failed to spawn, exited before a
 * line, or exited non-zero.
 */
double secondsUntilReady(const std::vector<std::string> &argv);

/**
 * A triarchd on an AF_UNIX socket: spawned with stdout/stderr sent to
 * a log file, ready once it answers a stats probe, stopped with
 * SIGTERM (graceful drain) and reaped. Its CPU time is read from
 * /proc.
 */
class Daemon
{
  public:
    /**
     * Spawn @p binary listening on @p socket_path with @p workers
     * worker threads and no cache file, and wait (up to 30 s) until it
     * answers a stats probe. nullptr with *error on failure; a child
     * that was started is stopped again.
     */
    static std::unique_ptr<Daemon> start(const std::string &binary,
                                         const std::string &socket_path,
                                         unsigned workers,
                                         const std::string &log_path,
                                         std::string *error);

    ~Daemon();

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /** SIGTERM, then wait for exit (SIGKILL after 30 s). True when
     *  the daemon drained and exited 0. Idempotent. */
    bool stop();

    const std::string &socketPath() const { return socket; }

    /** utime + stime of the daemon so far, in seconds. */
    double cpuSeconds() const;

  private:
    Daemon(pid_t child, std::string socket_path)
        : pid(child), socket(std::move(socket_path))
    {
    }

    pid_t pid = -1;
    std::string socket;
    bool exitedOk = false;
};

} // namespace perfbench

#endif // PERFBENCH_PROCESS_HH
