#include "serve/serve_cli.hh"

#include <atomic>
#include <csignal>
#include <istream>
#include <map>
#include <mutex>
#include <ostream>
#include <thread>
#include <vector>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "cli/cli.hh"
#include "common/parallel.hh"
#include "serve/server.hh"
#include "serve/socket_io.hh"

namespace dalorex
{
namespace serve
{
namespace
{

/** Set by the SIGINT/SIGTERM handler; polled by the transports. */
std::atomic<bool> signalled{false};

void
onSignal(int)
{
    signalled.store(true);
}

/**
 * Install SIGINT/SIGTERM handlers for the daemon's lifetime and
 * restore the previous ones on destruction. No SA_RESTART: a blocked
 * read must return EINTR so the transport notices the shutdown.
 */
struct SignalGuard
{
    struct sigaction oldInt{};
    struct sigaction oldTerm{};

    SignalGuard()
    {
        signalled.store(false);
        struct sigaction sa{};
        sa.sa_handler = onSignal;
        sigemptyset(&sa.sa_mask);
        sa.sa_flags = 0;
        sigaction(SIGINT, &sa, &oldInt);
        sigaction(SIGTERM, &sa, &oldTerm);
    }

    ~SignalGuard()
    {
        sigaction(SIGINT, &oldInt, nullptr);
        sigaction(SIGTERM, &oldTerm, nullptr);
    }
};

ServeParseResult
fail(const std::string& message)
{
    ServeParseResult result;
    result.ok = false;
    result.error = message;
    return result;
}

/**
 * Stdin transport: the caller's thread reads request lines while the
 * crew serves on a helper thread, so signals interrupt the read.
 */
int
serveOnStreams(Server& server, std::istream& in, std::ostream& out)
{
    const std::uint64_t conn =
        server.openConnection([&out](const std::string& line) {
            out << line;
            out.flush();
        });
    std::thread crew([&server] { server.serve(); });

    std::string line;
    while (!server.shutdownRequested() && !signalled.load() &&
           std::getline(in, line))
        server.handleLine(conn, line);

    // EOF, a shutdown request, or a signal: drain and leave. serve()
    // returns only after every accepted job's response went out, so
    // the connection closes strictly after the last result line.
    server.requestShutdown();
    crew.join();
    server.closeConnection(conn);
    return 0;
}

/** Socket transport state shared by accept/reader/teardown. */
struct SocketState
{
    std::mutex mutex;
    std::map<std::uint64_t, int> fds; //!< open connections
    std::vector<std::thread> readers;
};

void
readConnection(Server& server, SocketState& state, std::uint64_t conn,
               int fd)
{
    LineReader reader(fd);
    std::string line;
    while (true) {
        const ReadStatus status = reader.readLine(line);
        if (status == ReadStatus::line) {
            server.handleLine(conn, line);
            continue;
        }
        if (status == ReadStatus::interrupted &&
            !server.shutdownRequested() && !signalled.load())
            continue;
        if (status == ReadStatus::overflow)
            // Tell the peer how big its unterminated line got before
            // cutting it loose, instead of a silent hangup.
            server.rejectOversized(conn, reader.bufferedBytes());
        break; // EOF, broken pipe, buffer abuse, or shutdown
    }
    server.closeConnection(conn);
    std::lock_guard<std::mutex> lock(state.mutex);
    state.fds.erase(conn);
    ::close(fd);
}

void
acceptLoop(Server& server, SocketState& state, int listenFd)
{
    while (!server.shutdownRequested()) {
        if (signalled.load()) {
            // Promote the signal to an orderly shutdown from a
            // normal thread (the handler itself cannot take locks).
            server.requestShutdown();
            break;
        }
        pollfd pfd{listenFd, POLLIN, 0};
        const int ready = ::poll(&pfd, 1, 200);
        if (ready <= 0)
            continue; // timeout/EINTR: re-check the flags
        const int fd = ::accept(listenFd, nullptr, nullptr);
        if (fd < 0)
            continue;
        const std::uint64_t conn =
            server.openConnection([fd](const std::string& line) {
                sendAll(fd, line);
            });
        std::lock_guard<std::mutex> lock(state.mutex);
        state.fds.emplace(conn, fd);
        state.readers.emplace_back([&server, &state, conn, fd] {
            readConnection(server, state, conn, fd);
        });
    }
}

int
serveOnSocket(Server& server, const std::string& path,
              std::ostream& err)
{
    std::string diag;
    const int listenFd = listenUnix(path, diag);
    if (listenFd < 0) {
        err << "dalorex serve: " << diag << "\n";
        return 2;
    }
    err << "[serve] listening on " << path << " with "
        << server.workers() << " worker"
        << (server.workers() == 1 ? "" : "s") << "\n";

    SocketState state;
    std::thread acceptor([&server, &state, listenFd] {
        acceptLoop(server, state, listenFd);
    });

    server.serve(); // blocks until shutdown + drain
    acceptor.join();
    ::close(listenFd);
    ::unlink(path.c_str());

    // Readers may still be blocked on idle clients; every accepted
    // job has already been answered, so cut the read sides loose.
    {
        std::lock_guard<std::mutex> lock(state.mutex);
        for (const auto& [conn, fd] : state.fds) {
            (void)conn;
            ::shutdown(fd, SHUT_RD);
        }
    }
    for (std::thread& reader : state.readers)
        reader.join();
    err << "[serve] drained, exiting\n";
    return 0;
}

} // namespace

ServeParseResult
parseServeArgs(int argc, const char* const* argv)
{
    ServeParseResult result;
    ServeOptions& o = result.options;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--help" || flag == "-h") {
            o.help = true;
        } else if (flag == "--socket") {
            if (i + 1 >= argc)
                return fail("--socket needs a path");
            o.socketPath = argv[++i];
            if (o.socketPath.empty())
                return fail("--socket needs a non-empty path");
        } else if (flag == "--workers") {
            if (i + 1 >= argc)
                return fail("--workers needs a value");
            std::uint32_t workers = 0;
            if (!cli::parseU32(argv[++i], 1, 256, workers))
                return fail(std::string("--workers must be in "
                                        "[1, 256], got ") +
                            argv[i]);
            o.workers = workers;
        } else if (flag == "--retries") {
            if (i + 1 >= argc)
                return fail("--retries needs a value");
            std::uint32_t retries = 0;
            if (!cli::parseU32(argv[++i], 0, 16, retries))
                return fail(std::string("--retries must be in "
                                        "[0, 16], got ") +
                            argv[i]);
            o.retries = retries;
        } else {
            return fail("unknown option: " + flag + " (try --help)");
        }
    }
    return result;
}

std::string
serveUsageText()
{
    return
        "usage: dalorex serve [options]\n"
        "\n"
        "Long-lived experiment daemon. Accepts newline-delimited JSON\n"
        "requests on stdin (default) or a Unix domain socket, runs\n"
        "each scenario on a persistent worker crew with a priority +\n"
        "fair-share queue, and streams JSONL responses. Datasets stay\n"
        "cached and mmap'd across requests, and each run's tile queues\n"
        "take host memory only as they fill; result payloads are\n"
        "byte-identical to a standalone `dalorex --json` run of the\n"
        "same scenario. The daemon keeps no results across restarts:\n"
        "a `sweep --via` run's own --journal is its durable record,\n"
        "and rerun on that journal it resubmits only the rows missing\n"
        "from it.\n"
        "\n"
        "options:\n"
        "  --socket PATH   listen on a Unix domain socket instead of\n"
        "                  stdin/stdout (the path is replaced and\n"
        "                  removed on exit)\n"
        "  --workers N     concurrent run slots [1, 256] (default:\n"
        "                  host cores)\n"
        "  --retries N     re-run transiently failing scenarios\n"
        "                  (dataset file I/O) up to N extra times with\n"
        "                  exponential backoff [0, 16] (default: 0)\n"
        "  --help          this text\n"
        "\n"
        "requests (one JSON object per line):\n"
        "  {\"type\":\"run\",\"id\":\"r1\",\"kernel\":\"bfs\","
        "\"dataset\":\"wiki\",\n"
        "   \"width\":8,\"height\":8,...}   scenario fields mirror"
        " the\n"
        "                                dalorex flags (a"
        " \"deadline_ms\"\n"
        "                                budget counts from"
        " acceptance);\n"
        "                                \"client\", \"priority\"\n"
        "                                [-100,100] and \"weight\""
        " (0,1000]\n"
        "                                steer the queue\n"
        "  {\"type\":\"stats\",\"id\":\"s1\"}      daemon counters"
        " (uptime, queue\n"
        "                                depths, per-client, dataset"
        " cache)\n"
        "  {\"type\":\"shutdown\",\"id\":\"q1\"}   drain accepted"
        " work and exit\n"
        "\n"
        "responses (JSONL, ids echoed):\n"
        "  {\"type\":\"accepted\",\"id\":...,\"queued\":N}\n"
        "  {\"type\":\"result\",\"id\":...,\"report\":{...}}   the"
        " exact\n"
        "                                `dalorex --json` bytes\n"
        "  {\"type\":\"error\",\"id\":...,\"error\":\"...\"}    bad"
        " request or\n"
        "                                failed run, with"
        " \"transient\":true\n"
        "                                when a retry may succeed;"
        " the\n"
        "                                daemon keeps serving\n"
        "  {\"type\":\"stats\",\"id\":...,\"stats\":{...}}\n"
        "\n"
        "examples:\n"
        "  echo '{\"type\":\"run\",\"id\":\"r1\",\"kernel\":\"bfs\","
        "\"scale\":8,\n"
        "         \"width\":4,\"height\":4}' | dalorex serve\n"
        "  dalorex serve --socket /tmp/dalorex.sock --workers 4 &\n"
        "  dalorex sweep --quick --via /tmp/dalorex.sock\n";
}

int
serveMain(int argc, const char* const* argv, std::istream& in,
          std::ostream& out, std::ostream& err)
{
    const ServeParseResult parsed = parseServeArgs(argc, argv);
    if (!parsed.ok) {
        err << "dalorex serve: " << parsed.error << "\n";
        return 2;
    }
    const ServeOptions& o = parsed.options;
    if (o.help) {
        out << serveUsageText();
        return 0;
    }

    const unsigned workers =
        o.workers > 0 ? o.workers : defaultWorkerThreads();
    Server server(workers);
    if (o.retries > 0)
        server.setRetries(o.retries);
    SignalGuard signals;
    return o.socketPath.empty()
               ? serveOnStreams(server, in, out)
               : serveOnSocket(server, o.socketPath, err);
}

} // namespace serve
} // namespace dalorex
