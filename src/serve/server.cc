#include "server.hh"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "sim/logging.hh"

namespace triarch::serve
{

namespace
{

/** write() the whole buffer, riding out short writes and EINTR. */
bool
writeAll(int fd, const std::string &data)
{
    std::size_t sent = 0;
    while (sent < data.size()) {
        const ssize_t n =
            ::write(fd, data.data() + sent, data.size() - sent);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        sent += static_cast<std::size_t>(n);
    }
    return true;
}

} // namespace

SocketServer::SocketServer(ExperimentService &job_service,
                           ServerOptions server_options)
    : service(job_service), opts(std::move(server_options))
{
}

SocketServer::~SocketServer()
{
    stop();
}

bool
SocketServer::start(std::string *error)
{
    const auto fail = [this, error](const std::string &why) {
        if (error)
            *error = why + ": " + std::strerror(errno);
        if (listenFd >= 0) {
            ::close(listenFd);
            listenFd = -1;
        }
        return false;
    };

    triarch_assert(!started, "SocketServer started twice");

    if (::pipe(stopPipe) != 0)
        return fail("cannot create stop pipe");

    if (!opts.unixPath.empty()) {
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (opts.unixPath.size() >= sizeof(addr.sun_path)) {
            if (error)
                *error = "unix socket path too long: " + opts.unixPath;
            return false;
        }
        std::strncpy(addr.sun_path, opts.unixPath.c_str(),
                     sizeof(addr.sun_path) - 1);
        listenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (listenFd < 0)
            return fail("cannot create unix socket");
        // A previous daemon's leftover socket file would make bind
        // fail; it is dead weight once no process listens on it.
        ::unlink(opts.unixPath.c_str());
        if (::bind(listenFd, reinterpret_cast<sockaddr *>(&addr),
                   sizeof(addr)) != 0)
            return fail("cannot bind '" + opts.unixPath + "'");
    } else {
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = htons(opts.port);
        listenFd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (listenFd < 0)
            return fail("cannot create tcp socket");
        const int one = 1;
        ::setsockopt(listenFd, SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof(one));
        if (::bind(listenFd, reinterpret_cast<sockaddr *>(&addr),
                   sizeof(addr)) != 0) {
            return fail("cannot bind 127.0.0.1:"
                        + std::to_string(opts.port));
        }
        sockaddr_in bound{};
        socklen_t len = sizeof(bound);
        if (::getsockname(listenFd,
                          reinterpret_cast<sockaddr *>(&bound),
                          &len) != 0)
            return fail("cannot read bound port");
        boundPort = ntohs(bound.sin_port);
    }

    if (::listen(listenFd, 16) != 0)
        return fail("cannot listen");

    started = true;
    acceptor = std::thread([this] { acceptLoop(); });
    return true;
}

void
SocketServer::acceptLoop()
{
    for (;;) {
        pollfd fds[2] = {{listenFd, POLLIN, 0},
                         {stopPipe[0], POLLIN, 0}};
        const int rc = ::poll(fds, 2, -1);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (fds[1].revents || stopping.load(std::memory_order_acquire))
            break;
        if (!(fds[0].revents & POLLIN))
            continue;
        const int fd = ::accept(listenFd, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR || errno == ECONNABORTED)
                continue;
            break;
        }
        nAccepted.fetch_add(1, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(connMu);
        connections.emplace_back(
            [this, fd] { serveConnection(fd); });
    }
}

void
SocketServer::serveConnection(int fd)
{
    const std::string tooLong =
        "request line exceeds " + std::to_string(maxRequestLineBytes)
        + " bytes";
    std::string buffer;
    // buffer[0, scanned) holds no newline: each read is searched
    // once, so a long line costs linear time, not quadratic.
    std::size_t scanned = 0;
    // Dropping the tail of an over-long line up to its newline.
    bool discarding = false;
    char chunk[4096];
    bool open = true;
    while (open) {
        // Serve every complete line already buffered before reading
        // more, so a stop() arriving mid-batch still answers the
        // requests that made it onto the wire.
        std::size_t start = 0, newline;
        while ((newline = buffer.find('\n', scanned))
               != std::string::npos) {
            std::string line = buffer.substr(start, newline - start);
            start = scanned = newline + 1;
            if (!line.empty() && line.back() == '\r')
                line.pop_back();
            if (line.empty())
                continue;
            JobRequest request;
            std::string parseError;
            JobResponse response;
            if (line.size() > maxRequestLineBytes)
                response = badRequestResponse("", tooLong);
            else if (!parseJobRequest(line, &request, &parseError))
                response = badRequestResponse(line, parseError);
            else if (request.kind == RequestKind::Stats)
                response = service.stats(request);
            else if (request.kind == RequestKind::Hw)
                response = service.hw(request);
            else
                response = service.submit(request);
            if (!writeAll(fd, writeJobResponse(response) + "\n")) {
                open = false;
                break;
            }
        }
        if (!open)
            break;
        buffer.erase(0, start);
        scanned = buffer.size();
        // The unterminated tail is already over the cap: answer now
        // and drop the line instead of buffering it to its end.
        if (buffer.size() > maxRequestLineBytes) {
            const std::string reply =
                writeJobResponse(badRequestResponse("", tooLong)) + "\n";
            if (!writeAll(fd, reply))
                break;
            std::string().swap(buffer);     // release the capacity
            scanned = 0;
            discarding = true;
        }
        if (stopping.load(std::memory_order_acquire))
            break;

        pollfd fds[2] = {{fd, POLLIN, 0}, {stopPipe[0], POLLIN, 0}};
        const int rc = ::poll(fds, 2, -1);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (fds[1].revents || stopping.load(std::memory_order_acquire))
            break;
        if (fds[0].revents & (POLLIN | POLLHUP | POLLERR)) {
            const ssize_t n = ::read(fd, chunk, sizeof(chunk));
            if (n <= 0) {
                if (n < 0 && errno == EINTR)
                    continue;
                break;    // peer closed (or hard error)
            }
            const char *data = chunk;
            std::size_t size = static_cast<std::size_t>(n);
            if (discarding) {
                const char *end =
                    static_cast<const char *>(std::memchr(data, '\n', size));
                if (!end)
                    continue;
                discarding = false;
                size -= static_cast<std::size_t>(end + 1 - data);
                data = end + 1;
            }
            buffer.append(data, size);
        }
    }
    ::close(fd);
}

void
SocketServer::stop()
{
    if (!started || stopped)
        return;
    stopped = true;
    stopping.store(true, std::memory_order_release);
    // One byte wakes every poller: the pipe's read end stays
    // readable because nobody drains it.
    const char byte = 1;
    (void)!::write(stopPipe[1], &byte, 1);

    if (acceptor.joinable())
        acceptor.join();
    if (listenFd >= 0) {
        ::close(listenFd);
        listenFd = -1;
    }
    std::vector<std::thread> conns;
    {
        std::lock_guard<std::mutex> lock(connMu);
        conns.swap(connections);
    }
    for (std::thread &t : conns)
        t.join();
    if (!opts.unixPath.empty())
        ::unlink(opts.unixPath.c_str());
    for (int &p : stopPipe) {
        if (p >= 0) {
            ::close(p);
            p = -1;
        }
    }
}

} // namespace triarch::serve
