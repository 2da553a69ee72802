#include "common/logging.hh"

#include <cstdio>
#include <cstdlib>

namespace dalorex
{

namespace log_detail
{

void
panicImpl(const char* file, int line, const std::string& msg)
{
    std::fprintf(stderr, "panic: %s\n  at %s:%d\n", msg.c_str(), file,
                 line);
    std::fflush(stderr);
    std::abort();
}

void
fatalImpl(const char* file, int line, const std::string& msg)
{
    std::fprintf(stderr, "fatal: %s\n  at %s:%d\n", msg.c_str(), file,
                 line);
    std::fflush(stderr);
    std::exit(1);
}

} // namespace log_detail
} // namespace dalorex
