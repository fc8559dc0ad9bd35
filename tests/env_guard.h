/**
 * @file
 * EnvGuard: set (or, with nullptr, unset) an environment variable for
 * one scope, restoring its previous state on exit. The tests force a
 * SIMD-ladder rung through CYCLONE_WAVE_BACKEND with it.
 */

#ifndef CYCLONE_TESTS_ENV_GUARD_H
#define CYCLONE_TESTS_ENV_GUARD_H

#include <cstdlib>
#include <string>

namespace cyclone {

class EnvGuard
{
  public:
    EnvGuard(const char* name, const char* value) : name_(name)
    {
        const char* prev = std::getenv(name);
        had_ = prev != nullptr;
        if (had_)
            old_ = prev;
        if (value != nullptr)
            ::setenv(name, value, 1);
        else
            ::unsetenv(name);
    }

    ~EnvGuard()
    {
        if (had_)
            ::setenv(name_.c_str(), old_.c_str(), 1);
        else
            ::unsetenv(name_.c_str());
    }

    EnvGuard(const EnvGuard&) = delete;
    EnvGuard& operator=(const EnvGuard&) = delete;

  private:
    std::string name_;
    std::string old_;
    bool had_ = false;
};

} // namespace cyclone

#endif // CYCLONE_TESTS_ENV_GUARD_H
