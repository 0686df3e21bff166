/**
 * @file
 * SocketServer: the daemon's transport. Listens on an AF_UNIX path
 * or a TCP loopback port, accepts connections on a dedicated thread,
 * and serves each connection from its own thread: read a line, parse
 * a triarch.job.v1 request, run it through the ExperimentService,
 * write the triarch.result.v1 response line. Malformed lines get a
 * bad_request error response instead of killing the connection, and
 * so do lines longer than maxRequestLineBytes: the server answers as
 * soon as the cap is crossed, discards the rest of that line, and
 * serves the next one, so one hostile line costs at most the cap in
 * memory.
 *
 * stop() is the graceful half of SIGTERM handling: a self-pipe wakes
 * every connection thread out of poll(), each finishes the request
 * it is currently serving (writing its response), and stop() joins
 * them all — no accepted request goes unanswered. Refusing *new*
 * work is the service's job (beginDrain()), so the daemon's shutdown
 * order is: beginDrain, stop, drain.
 */

#ifndef TRIARCH_SERVE_SERVER_HH
#define TRIARCH_SERVE_SERVER_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/service.hh"

namespace triarch::serve
{

/**
 * Longest request line the server buffers, excluding the newline.
 * A job.v1 request for all 15 cells of the paper config is about
 * 950 bytes, so 1 MiB leaves room for any legitimate request while
 * bounding what one connection can make the daemon hold.
 */
constexpr std::size_t maxRequestLineBytes = std::size_t{1} << 20;

struct ServerOptions
{
    /** AF_UNIX socket path; when set, TCP options are ignored. */
    std::string unixPath;

    /** TCP loopback port; 0 picks an ephemeral port (see port()). */
    std::uint16_t port = 0;
};

class SocketServer
{
  public:
    SocketServer(ExperimentService &job_service,
                 ServerOptions server_options);
    ~SocketServer();

    SocketServer(const SocketServer &) = delete;
    SocketServer &operator=(const SocketServer &) = delete;

    /** Bind, listen, and start the accept thread. Returns false
     *  with *error set when the socket cannot be set up. */
    bool start(std::string *error);

    /** The bound TCP port (after start(); 0 for AF_UNIX). */
    std::uint16_t port() const { return boundPort; }

    /** Wake every connection out of poll(), let in-progress requests
     *  answer, join all threads, close all sockets. Idempotent. */
    void stop();

    /** Connections accepted so far. */
    std::size_t connectionsAccepted() const
    {
        return nAccepted.load(std::memory_order_relaxed);
    }

  private:
    void acceptLoop();
    void serveConnection(int fd);

    ExperimentService &service;
    ServerOptions opts;

    int listenFd = -1;
    int stopPipe[2] = {-1, -1};    //!< [0] polled, [1] written by stop()
    std::uint16_t boundPort = 0;
    std::atomic<bool> stopping{false};
    std::atomic<std::size_t> nAccepted{0};

    std::thread acceptor;
    std::mutex connMu;
    std::vector<std::thread> connections;
    bool started = false;
    bool stopped = false;
};

} // namespace triarch::serve

#endif // TRIARCH_SERVE_SERVER_HH
