// MiniMPI runtime: launches an application function on every rank over a
// fabric (the calling thread runs the last local rank, cached threads run
// the others), and the application registry that models "the binary is
// installed on every node".
//
// The registry is the seam that lets a remote proxy launch the same program
// the origin site submitted: in a real deployment the executable exists on
// each node's filesystem; in this in-process reproduction it exists in each
// process image, registered once by name.
#pragma once

#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "mpi/comm.hpp"

namespace pg::mpi {

/// An MPI application body. Receives its communicator; returns its status.
using AppFn = std::function<Status(Comm&)>;

/// Process-wide name -> application table.
class AppRegistry {
 public:
  static AppRegistry& instance();

  /// Registers or replaces an application.
  void register_app(const std::string& name, AppFn fn);
  Result<AppFn> lookup(const std::string& name) const;
  bool has_app(const std::string& name) const;
  void unregister_app(const std::string& name);

 private:
  mutable std::mutex mutex_;
  std::map<std::string, AppFn> apps_;
};

/// Result of running one application.
struct RunReport {
  Status status;                       // first rank failure, or OK
  std::vector<Status> rank_status;     // per-rank outcome
};

/// Runs `app` with `world_size` ranks over `fabric`, running only the
/// ranks in `local_ranks` (the proxy deployment runs per-site subsets).
/// The last local rank runs on the calling thread and every other one on a
/// ThreadCache thread; returns once every local rank has finished.
RunReport run_ranks(Fabric& fabric, const AppFn& app,
                    const std::vector<std::uint32_t>& local_ranks,
                    std::uint32_t world_size);

/// Convenience for the single-cluster case (paper Figure 3a): LocalFabric,
/// all ranks in-process.
RunReport run_local(const AppFn& app, std::uint32_t world_size);

}  // namespace pg::mpi
