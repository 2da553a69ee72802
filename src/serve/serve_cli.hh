/**
 * @file
 * The `dalorex serve` subcommand: a long-lived experiment daemon.
 *
 * Transports wrap the transport-agnostic Server (server.hh):
 *   - stdin mode (default): requests on stdin, responses on stdout —
 *     one anonymous connection; ends at EOF or a `shutdown` request.
 *   - socket mode (--socket PATH): a Unix domain socket accepting
 *     concurrent clients, one reader thread per connection.
 *
 * Both drain accepted work before exiting on SIGINT/SIGTERM or a
 * `shutdown` request. serveMain takes the input stream explicitly so
 * tests drive the stdin transport with string streams, in-process.
 */

#ifndef DALOREX_SERVE_SERVE_CLI_HH
#define DALOREX_SERVE_SERVE_CLI_HH

#include <iosfwd>
#include <string>

namespace dalorex
{
namespace serve
{

/** Everything `dalorex serve` argv determines. */
struct ServeOptions
{
    std::string socketPath; //!< empty = stdin/stdout transport
    unsigned workers = 0;   //!< concurrent run slots; 0 = host cores
    /** Extra attempts for transiently failing runs (dataset I/O). */
    unsigned retries = 0;
    bool help = false;
};

/** Outcome of parsing serve argv: options, or a diagnostic. */
struct ServeParseResult
{
    ServeOptions options;
    bool ok = true;
    std::string error; //!< set when !ok
};

/** Parse `dalorex serve` argv (argv[0], the subcommand, skipped). */
ServeParseResult parseServeArgs(int argc, const char* const* argv);

/** The `dalorex serve --help` text. */
std::string serveUsageText();

/**
 * Full subcommand behavior: parse argv, run the daemon until EOF /
 * `shutdown` / SIGINT / SIGTERM, drain, exit. `in` is the stdin-mode
 * request stream (ignored with --socket); responses go to `out`,
 * diagnostics to `err`. Returns the process exit code.
 */
int serveMain(int argc, const char* const* argv, std::istream& in,
              std::ostream& out, std::ostream& err);

} // namespace serve
} // namespace dalorex

#endif // DALOREX_SERVE_SERVE_CLI_HH
