// Rank launcher: forks R worker processes connected by a transport-built
// socket mesh and supervises them.
//
// The transport (net/transport.hpp) decides how the mesh exists: the
// default `unix` backend creates one AF_UNIX socketpair per unordered rank
// pair in the parent *before* any fork, so every child inherits all
// descriptors and keeps only its own row; the `tcp` backend hands children
// a rendezvous port and they wire the mesh themselves after fork. Either
// way the parent closes everything and watches the children. By default
// the first nonzero exit, killing signal, or deadline overrun makes it
// terminate the whole group and report failure — a crashed or wedged rank
// can never hang the caller (or CI).
//
// Recovery (LaunchOptions::max_recoveries > 0). Next to the mesh, every
// rank gets a private AF_UNIX socketpair to the launcher (the control
// channel of net/control.hpp), owned by its Comm. Ranks report dead links
// upward (LinkDown); the launcher pushes repaired links downward
// (ReplacePeer + a passed descriptor). Because replacement ranks receive
// their entire mesh as passed descriptors, recovery is transport-blind: it
// works identically under `unix` and `tcp`.
//
// Recovery of a rank r killed by a signal (r != 0; the collector's death
// is final, and so is any nonzero exit — the rank itself concluded the run
// failed):
//   1. The supervisor reaps r, records a typed RankFailure, and creates a
//      fresh socketpair per survivor plus a fresh control channel.
//   2. Survivors get ReplacePeer{peer=r} with their end of the new link;
//      their Comm installs it and the distributed runtime replays its
//      SentTileLog into it.
//   3. A replacement process is forked whose Comm reports incarnation()
//      > 0; it rebuilds the deterministic plan, re-executes r's entire
//      partition, and re-posts its outputs (survivors deduplicate).
// A LinkDown for a live peer (chaos DropLink) re-wires just that link: a
// fresh pair, ReplacePeer to both endpoints. Epoch stamps deduplicate the
// two reports a severed link produces and discard reports that predate a
// re-wire already performed.
#pragma once

#include <functional>
#include <vector>

#include "fault/events.hpp"
#include "net/comm.hpp"
#include "net/transport.hpp"

namespace hqr::net {

struct LaunchOptions {
  // Wall-clock budget for the whole run; <= 0 means no deadline.
  double timeout_seconds = 0.0;
  // When tearing the group down after a failure or timeout: > 0 sends
  // SIGTERM first and escalates to SIGKILL only after this many seconds,
  // giving ranks a chance to flush traces/metrics; 0 keeps the historical
  // immediate-SIGKILL behavior.
  double term_grace_seconds = 0.0;
  // How ranks reach each other; defaults to the AF_UNIX socketpair mesh.
  TransportOptions transport;
  // Replacements the launcher may fork for ranks killed by a signal.
  // > 0 also gives every rank a control channel (Comm::has_control), which
  // is what turns the distributed runtime's recovery on. 0 = any death
  // tears the group down. Deaths past the budget escalate to teardown: a
  // rank that keeps dying is a real bug, not chaos.
  int max_recoveries = 0;
};

// How one rank's process ended.
struct RankExit {
  bool exited = false;     // ran to _exit()
  int exit_code = 0;       // valid when exited
  bool signaled = false;   // killed by a signal
  int term_signal = 0;     // valid when signaled
  bool killed_by_launcher = false;  // torn down during group cleanup

  bool ok() const { return exited && exit_code == 0 && !signaled; }
};

// What the supervision loop observed — the structured answer to "which
// rank failed, and how" that the plain exit code of run_ranks collapses
// away.
struct LaunchReport {
  int first_failure = 0;   // first fatal failure's exit code (1 for signals)
  int failed_rank = -1;    // rank of that first failure; -1 when none
  bool timed_out = false;  // the wall-clock budget expired
  std::vector<RankExit> ranks;  // final-incarnation exits, rank by rank
  std::vector<fault::RankFailure> failures;  // every observed failure
  int replacements_forked = 0;
  int links_rewired = 0;  // DropLink repairs (rank recoveries not counted)

  bool ok() const { return first_failure == 0 && !timed_out; }
};

// Forks `nranks` children; each runs `rank_main` with its communicator and
// exits with its return value (uncaught hqr exceptions — including a
// transport that cannot wire the mesh in time — become exit code 1).
// Replacements run the same `rank_main`. Must be called before the calling
// process spawns threads — fork() only carries the calling thread into the
// child. Every child still alive when this returns or throws is killed and
// reaped first.
LaunchReport run_ranks_report(int nranks,
                              const std::function<int(Comm&)>& rank_main,
                              const LaunchOptions& opts = {});

// Compact form: 0 when every rank exited 0, otherwise the first failing
// rank's exit code (or 1 for signals/timeouts).
int run_ranks(int nranks, const std::function<int(Comm&)>& rank_main,
              const LaunchOptions& opts = {});

}  // namespace hqr::net
