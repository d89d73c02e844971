/// \file parallel.h
/// \brief Minimal data-parallel helper for embarrassingly parallel loops.
///
/// `ParallelFor` fans a loop body out over a fixed number of worker threads
/// with static chunking — deterministic work assignment, so results are
/// bit-identical across runs. It carries the tree's two fan-outs:
/// `serve::Server::EvaluateBatch` and `hard::RunSeededBlocks`.

#ifndef PPREF_COMMON_PARALLEL_H_
#define PPREF_COMMON_PARALLEL_H_

#include <cstddef>
#include <functional>

namespace ppref {

/// Invokes `body(i)` for every i in [0, count), distributing iterations
/// over `threads` workers (static block partition). `threads <= 1` or
/// `count <= 1` runs inline. `body` must be safe to call concurrently for
/// distinct i; exceptions thrown by `body` (e.g. by `RunControl::Check()`)
/// are rethrown on the caller thread (the first one by worker order) after
/// every worker has joined.
void ParallelFor(std::size_t count, unsigned threads,
                 const std::function<void(std::size_t)>& body);

/// Resolves a user-facing `threads` knob into an effective worker count:
/// 0 means "auto" (every hardware thread); any other value is clamped to
/// `std::thread::hardware_concurrency()`. Never returns 0. Oversubscribing
/// CPU-bound work only adds context switches, so the clamp is a contract,
/// not a heuristic — see ServerOptions::threads.
unsigned ClampThreads(unsigned requested);

}  // namespace ppref

#endif  // PPREF_COMMON_PARALLEL_H_
