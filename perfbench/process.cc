#include "process.hh"

#include <chrono>
#include <csignal>
#include <fcntl.h>
#include <fstream>
#include <spawn.h>
#include <sstream>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "serve/client.hh"

extern char **environ;

namespace perfbench
{

namespace
{

using namespace std::chrono_literals;

/** Wait up to @p limit for @p pid to exit; true with *status set. */
bool
reap(pid_t pid, std::chrono::milliseconds limit, int *status)
{
    const auto deadline = std::chrono::steady_clock::now() + limit;
    for (;;) {
        const pid_t rc = ::waitpid(pid, status, WNOHANG);
        if (rc == pid || rc < 0)
            return rc == pid;
        if (std::chrono::steady_clock::now() > deadline)
            return false;
        std::this_thread::sleep_for(1ms);
    }
}

std::vector<char *>
argvOf(std::vector<std::string> &args)
{
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);
    return argv;
}

} // namespace

double
secondsUntilReady(const std::vector<std::string> &argv_in)
{
    int fds[2];
    if (::pipe(fds) != 0)
        return -1.0;
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    posix_spawn_file_actions_addclose(&actions, fds[1]);
    std::vector<std::string> args = argv_in;
    std::vector<char *> argv = argvOf(args);

    const auto t0 = std::chrono::steady_clock::now();
    pid_t child = -1;
    const int rc = ::posix_spawn(&child, argv[0], &actions, nullptr,
                                 argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(fds[1]);
    if (rc != 0) {
        ::close(fds[0]);
        return -1.0;
    }
    char c = 0;
    bool line = false;
    while (::read(fds[0], &c, 1) == 1) {
        if (c == '\n') {
            line = true;
            break;
        }
    }
    const auto t1 = std::chrono::steady_clock::now();
    ::close(fds[0]);
    int status = 0;
    ::waitpid(child, &status, 0);
    if (!line || !WIFEXITED(status) || WEXITSTATUS(status) != 0)
        return -1.0;
    return std::chrono::duration<double>(t1 - t0).count();
}

std::unique_ptr<Daemon>
Daemon::start(const std::string &binary, const std::string &socket_path,
              unsigned workers, const std::string &log_path,
              std::string *error)
{
    ::unlink(socket_path.c_str());

    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO,
                                     log_path.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO,
                                     STDERR_FILENO);
    const std::string threads = std::to_string(workers);
    std::vector<std::string> args = {binary, "--socket", socket_path,
                                     "--threads", threads};
    std::vector<char *> argv = argvOf(args);

    pid_t child = -1;
    const int rc = ::posix_spawn(&child, binary.c_str(), &actions,
                                 nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) {
        *error = "cannot spawn " + binary;
        return nullptr;
    }
    std::unique_ptr<Daemon> d(new Daemon(child, socket_path));

    // Ready = connected and answered a stats probe.
    const auto deadline = std::chrono::steady_clock::now() + 30s;
    triarch::serve::JobRequest probe;
    probe.id = "ready";
    probe.kind = triarch::serve::RequestKind::Stats;
    for (;;) {
        int status = 0;
        if (::waitpid(child, &status, WNOHANG) == child) {
            d->pid = -1;
            *error = "triarchd exited during start-up (see " + log_path
                     + ")";
            return nullptr;
        }
        std::string why;
        auto client =
            triarch::serve::Client::connectUnix(socket_path, &why);
        if (client.connected()) {
            auto reply = client.call(probe, &why);
            if (reply && reply->ok())
                return d;
        }
        if (std::chrono::steady_clock::now() > deadline) {
            *error = "triarchd did not answer on " + socket_path;
            return nullptr;
        }
        std::this_thread::sleep_for(1ms);
    }
}

Daemon::~Daemon()
{
    stop();
}

bool
Daemon::stop()
{
    if (pid < 0)
        return exitedOk;
    ::kill(pid, SIGTERM);
    int status = 0;
    if (!reap(pid, 30s, &status)) {
        ::kill(pid, SIGKILL);
        reap(pid, 30s, &status);
    }
    exitedOk = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    pid = -1;
    ::unlink(socket.c_str());
    return exitedOk;
}

double
Daemon::cpuSeconds() const
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    // Fields after the parenthesised command name; utime and stime
    // are fields 14 and 15 (1-based), i.e. 11 and 12 after ')'.
    const auto close = text.rfind(')');
    if (close == std::string::npos)
        return 0.0;
    std::istringstream rest(text.substr(close + 2));
    std::string field;
    unsigned long long utime = 0, stime = 0;
    for (int i = 1; i <= 13 && rest >> field; ++i) {
        if (i == 12)
            utime = std::stoull(field);
        if (i == 13)
            stime = std::stoull(field);
    }
    return static_cast<double>(utime + stime)
           / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

} // namespace perfbench
