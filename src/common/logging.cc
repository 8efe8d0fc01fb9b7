#include "common/logging.hh"

#include <cstdlib>
#include <iostream>

namespace sipt
{
namespace
{
/** Live FatalThrowScopes on this thread. Thread-confined: each
 *  thread reads and writes only its own copy. */
thread_local unsigned fatalThrowDepth = 0;
} // namespace

FatalThrowScope::FatalThrowScope() { ++fatalThrowDepth; }

FatalThrowScope::~FatalThrowScope() { --fatalThrowDepth; }

namespace detail
{

void
fatalImpl(const std::string &msg, const char *, int)
{
    if (fatalThrowDepth > 0)
        throw FatalError(msg);
    std::cerr << "fatal: " << msg << std::endl;
    std::exit(1);
}

void
panicImpl(const std::string &msg, const char *, int)
{
    std::cerr << "panic: " << msg << std::endl;
    std::abort();
}

void
warnImpl(const std::string &msg)
{
    std::cerr << "warn: " << msg << std::endl;
}

void
informImpl(const std::string &msg)
{
    std::cerr << "info: " << msg << std::endl;
}

} // namespace detail
} // namespace sipt
