#include "ppref/common/parallel.h"

#include <algorithm>
#include <exception>
#include <thread>
#include <vector>

namespace ppref {

void ParallelFor(std::size_t count, unsigned threads,
                 const std::function<void(std::size_t)>& body) {
  if (count == 0) return;
  const unsigned workers =
      static_cast<unsigned>(std::min<std::size_t>(threads, count));
  if (workers <= 1) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }
  std::vector<std::exception_ptr> errors(workers);
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (unsigned w = 0; w < workers; ++w) {
    pool.emplace_back([&, w] {
      try {
        // Static block partition: worker w owns [begin, end).
        const std::size_t begin = count * w / workers;
        const std::size_t end = count * (w + 1) / workers;
        for (std::size_t i = begin; i < end; ++i) body(i);
      } catch (...) {
        errors[w] = std::current_exception();
      }
    });
  }
  for (std::thread& thread : pool) thread.join();
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

unsigned ClampThreads(unsigned requested) {
  // hardware_concurrency() may legally report 0 ("unknown") — treat as 1.
  const unsigned hardware = std::max(1u, std::thread::hardware_concurrency());
  if (requested == 0) return hardware;
  return std::min(requested, hardware);
}

}  // namespace ppref
