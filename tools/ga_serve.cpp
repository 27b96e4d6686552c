// ga-serve — the long-running allocation service over a scenario file.
//
// Loads a JSON scenario (io/scenario.hpp), resolves its first expanded grid
// point into a live ServeSession (service/session.hpp), and speaks the
// line-delimited JSON request/response protocol (service/protocol.hpp) over
// stdin/stdout — and, with --socket, additionally over a local AF_UNIX
// stream socket multiplexed onto the same single-threaded session.
//
// Responses go to the transport the request arrived on; stderr carries
// startup/progress notes so stdout stays a pure protocol transcript. The
// daemon exits on a `shutdown` request or stdin EOF. Determinism contract:
// the same scenario plus the same stdin request lines produce a
// byte-identical stdout transcript (see service/session.hpp), which the
// committed golden session in examples/serve/ pins in CI — including across
// a checkpoint/--restore split.
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "io/scenario.hpp"
#include "obs/metrics.hpp"
#include "obs/walltime.hpp"
#include "service/session.hpp"
#include "service/snapshot.hpp"
#include "util/error.hpp"
#include "util/framing.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define GA_SERVE_HAVE_SOCKETS 1
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#else
#define GA_SERVE_HAVE_SOCKETS 0
#endif

namespace {

constexpr std::string_view kUsage =
    R"USAGE(usage: ga-serve <scenario.json> [options]

Serves the scenario's first expanded grid point as a persistent allocation
service: one JSON request per stdin line, one JSON response per stdout line
(request types: create_account, submit_jobs, quote, charge, refund, balance,
stats, metrics, advance, checkpoint, shutdown). Exits on `shutdown` or stdin
EOF.

options:
  --restore FILE   restore session state from a ga-serve snapshot before
                   serving (the snapshot must match this scenario)
  --socket PATH    additionally listen on a local AF_UNIX stream socket;
                   each connection speaks the same line protocol
  --scale X        scale the workload's configured base_jobs by X (affects
                   only the generate-path user pool sizing consistency with
                   ga-sim; the service itself generates jobs on demand)
  --metrics        collect obs metrics (per-request latency histogram,
                   ledger/service counters); the `metrics` request reports
                   them live, and the final registry snapshot goes to stderr
                   at exit. Never alters the stdout transcript.
  --help           show this message
)USAGE";

struct CliOptions {
    std::string scenario_path;
    std::optional<std::string> restore_path;
    std::optional<std::string> socket_path;
    std::optional<double> scale;
    bool metrics = false;
};

[[noreturn]] void fail_usage(const std::string& message) {
    std::fprintf(stderr, "ga-serve: %s\n\n%s", message.c_str(),
                 std::string(kUsage).c_str());
    std::exit(2);
}

std::string next_arg(int argc, char** argv, int& i, std::string_view flag) {
    if (i + 1 >= argc) {
        fail_usage(std::string(flag) + " requires an argument");
    }
    return argv[++i];
}

CliOptions parse_cli(int argc, char** argv) {
    CliOptions options;
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            std::fputs(std::string(kUsage).c_str(), stdout);
            std::exit(0);
        } else if (arg == "--restore") {
            options.restore_path = next_arg(argc, argv, i, arg);
        } else if (arg == "--socket") {
            options.socket_path = next_arg(argc, argv, i, arg);
        } else if (arg == "--scale") {
            const std::string value = next_arg(argc, argv, i, arg);
            try {
                options.scale = std::stod(value);
            } catch (const std::exception&) {
                fail_usage("--scale needs a number, got '" + value + "'");
            }
            if (!(*options.scale > 0.0)) {
                fail_usage("--scale must be positive");
            }
        } else if (arg == "--metrics") {
            options.metrics = true;
        } else if (!arg.empty() && arg.front() == '-') {
            fail_usage("unknown option '" + std::string(arg) + "'");
        } else if (options.scenario_path.empty()) {
            options.scenario_path = arg;
        } else {
            fail_usage("unexpected extra argument '" + std::string(arg) + "'");
        }
    }
    if (options.scenario_path.empty()) {
        fail_usage("missing scenario file");
    }
    return options;
}

/// Handles one request line, timing it into the per-request latency
/// histogram when --metrics enabled collection; without --metrics this is
/// exactly session.handle_line (no clock reads, no histogram touch). The
/// response bytes are identical either way — metrics only observe.
std::string handle_timed(ga::service::ServeSession& session,
                         std::string_view line) {
    if (!ga::obs::metrics_enabled()) return session.handle_line(line);
    static ga::obs::Histogram& latency =
        ga::obs::Registry::global().histogram_handle(
            "serve.request_latency_us",
            {1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0,
             2000.0, 5000.0, 10000.0, 50000.0});
    const ga::obs::WallTimer timer;
    std::string response = session.handle_line(line);
    latency.observe(timer.seconds() * 1e6);
    return response;
}

/// Responds to every complete frame buffered in `framer`; returns false
/// once a shutdown was acknowledged.
bool drain_frames(ga::service::ServeSession& session,
                  ga::util::LineFramer& framer, std::FILE* out) {
    while (auto frame = framer.next()) {
        const std::string response = handle_timed(session, *frame);
        std::fwrite(response.data(), 1, response.size(), out);
        std::fputc('\n', out);
        std::fflush(out);
        if (session.shutdown_requested()) return false;
    }
    return true;
}

/// Blocks until stdin has bytes and returns what arrived (0 at EOF or on
/// a read error). On POSIX this is read(2), which returns as soon as a line
/// is in, so a client that waits for each response before writing the next
/// request is answered line by line; elsewhere it is a buffered fread.
std::size_t read_stdin(char* buffer, std::size_t size) {
#if GA_SERVE_HAVE_SOCKETS
    for (;;) {
        const ssize_t n = ::read(0, buffer, size);
        if (n >= 0) return static_cast<std::size_t>(n);
        if (errno != EINTR) return 0;
    }
#else
    return std::fread(buffer, 1, size, stdin);
#endif
}

/// stdin/stdout-only loop (also the non-socket fallback everywhere).
int serve_stdio(ga::service::ServeSession& session) {
    ga::util::LineFramer framer;
    char buffer[1 << 16];
    std::size_t n = 0;
    while ((n = read_stdin(buffer, sizeof buffer)) > 0) {
        framer.feed(std::string_view(buffer, n));
        if (!drain_frames(session, framer, stdout)) return 0;
    }
    if (auto last = framer.finish()) {
        const std::string response = handle_timed(session, *last);
        std::fwrite(response.data(), 1, response.size(), stdout);
        std::fputc('\n', stdout);
        std::fflush(stdout);
    }
    return 0;
}

#if GA_SERVE_HAVE_SOCKETS

/// One connected socket client with its own framing buffer.
struct SocketClient {
    int fd = -1;
    ga::util::LineFramer framer;
};

/// Sends all of `response` + '\n' on a socket fd; returns false on error.
bool send_line(int fd, const std::string& response) {
    std::string out = response;
    out.push_back('\n');
    std::size_t sent = 0;
    while (sent < out.size()) {
        const ssize_t n = ::write(fd, out.data() + sent, out.size() - sent);
        if (n <= 0) return false;
        sent += static_cast<std::size_t>(n);
    }
    return true;
}

/// stdin + AF_UNIX listener multiplexed with poll(); the session stays
/// single-threaded — requests are handled in arrival order.
int serve_multiplexed(ga::service::ServeSession& session,
                      const std::string& socket_path) {
    const int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd < 0) {
        std::fprintf(stderr, "ga-serve: cannot create socket: %s\n",
                     std::strerror(errno));
        return 1;
    }
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (socket_path.size() >= sizeof addr.sun_path) {
        std::fprintf(stderr, "ga-serve: socket path too long\n");
        ::close(listen_fd);
        return 1;
    }
    std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
    ::unlink(socket_path.c_str());
    if (::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr),
               sizeof addr) != 0 ||
        ::listen(listen_fd, 8) != 0) {
        std::fprintf(stderr, "ga-serve: cannot bind %s: %s\n",
                     socket_path.c_str(), std::strerror(errno));
        ::close(listen_fd);
        return 1;
    }
    std::fprintf(stderr, "ga-serve: listening on %s\n", socket_path.c_str());

    ga::util::LineFramer stdin_framer;
    std::vector<SocketClient> clients;
    bool stdin_open = true;
    bool running = true;
    while (running) {
        std::vector<pollfd> fds;
        if (stdin_open) fds.push_back(pollfd{0, POLLIN, 0});
        fds.push_back(pollfd{listen_fd, POLLIN, 0});
        for (const SocketClient& client : clients) {
            fds.push_back(pollfd{client.fd, POLLIN, 0});
        }
        if (::poll(fds.data(), fds.size(), -1) < 0) {
            if (errno == EINTR) continue;
            break;
        }
        std::size_t idx = 0;
        if (stdin_open) {
            if ((fds[idx].revents & (POLLIN | POLLHUP)) != 0) {
                char buffer[1 << 16];
                const std::size_t n = read_stdin(buffer, sizeof buffer);
                if (n == 0) {
                    // stdin EOF ends the daemon: the driving process is gone.
                    running = false;
                } else {
                    stdin_framer.feed(std::string_view(buffer, n));
                    if (!drain_frames(session, stdin_framer, stdout)) {
                        running = false;
                    }
                }
            }
            ++idx;
        }
        if (running && (fds[idx].revents & POLLIN) != 0) {
            const int client_fd = ::accept(listen_fd, nullptr, nullptr);
            if (client_fd >= 0) {
                SocketClient client;
                client.fd = client_fd;
                clients.push_back(std::move(client));
            }
        }
        ++idx;
        for (std::size_t c = 0; running && c < clients.size();) {
            SocketClient& client = clients[c];
            if (idx + c >= fds.size() ||
                (fds[idx + c].revents & (POLLIN | POLLHUP)) == 0) {
                ++c;
                continue;
            }
            char buffer[1 << 16];
            const ssize_t n = ::read(client.fd, buffer, sizeof buffer);
            bool drop = n <= 0;
            if (n > 0) {
                client.framer.feed(
                    std::string_view(buffer, static_cast<std::size_t>(n)));
                while (auto frame = client.framer.next()) {
                    const std::string response = handle_timed(session, *frame);
                    if (!send_line(client.fd, response)) {
                        drop = true;
                        break;
                    }
                    if (session.shutdown_requested()) {
                        running = false;
                        break;
                    }
                }
            }
            if (drop) {
                ::close(client.fd);
                clients.erase(clients.begin() +
                              static_cast<std::ptrdiff_t>(c));
            } else {
                ++c;
            }
        }
    }
    for (const SocketClient& client : clients) ::close(client.fd);
    ::close(listen_fd);
    ::unlink(socket_path.c_str());
    return 0;
}

#endif  // GA_SERVE_HAVE_SOCKETS

int run(const CliOptions& options) {
    if (options.metrics) ga::obs::set_metrics_enabled(true);
    ga::io::ScenarioFile scenario =
        ga::io::load_scenario_file(options.scenario_path);
    if (options.scale.has_value()) scenario.scale_workload(*options.scale);

    std::optional<ga::service::SessionState> restored;
    if (options.restore_path.has_value()) {
        restored = ga::service::read_snapshot_file(*options.restore_path);
    }
    ga::service::ServeSession session =
        restored.has_value()
            ? ga::service::ServeSession(std::move(scenario), *restored)
            : ga::service::ServeSession(std::move(scenario));
    if (session.grid_points() > 1) {
        std::fprintf(stderr,
                     "ga-serve: scenario grid expands to %zu points; serving "
                     "only the first\n",
                     session.grid_points());
    }
    std::fprintf(stderr, "ga-serve: ready\n");

    int rc = 0;
#if GA_SERVE_HAVE_SOCKETS
    if (options.socket_path.has_value()) {
        rc = serve_multiplexed(session, *options.socket_path);
    } else {
        rc = serve_stdio(session);
    }
#else
    if (options.socket_path.has_value()) {
        std::fprintf(stderr,
                     "ga-serve: --socket is not supported on this platform\n");
        return 1;
    }
    rc = serve_stdio(session);
#endif
    if (options.metrics) {
        // Final registry snapshot to stderr: stdout stays a pure protocol
        // transcript, byte-identical with and without --metrics.
        const std::string text =
            ga::obs::Registry::global().render_prometheus();
        std::fputs("ga-serve: final metrics\n", stderr);
        std::fputs(text.c_str(), stderr);
    }
    return rc;
}

}  // namespace

int main(int argc, char** argv) {
    try {
        return run(parse_cli(argc, argv));
    } catch (const std::exception& e) {
        std::fprintf(stderr, "ga-serve: error: %s\n", e.what());
        return 1;
    }
}
