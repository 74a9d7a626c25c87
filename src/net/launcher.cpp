#include "net/launcher.hpp"

#include <chrono>
#include <cstdio>
#include <exception>
#include <thread>
#include <tuple>
#include <utility>

#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>
#ifdef __linux__
#include <sys/prctl.h>
#endif

#include "common/check.hpp"
#include "common/stopwatch.hpp"
#include "net/control.hpp"

namespace hqr::net {

namespace {

using fault::FailureReason;
using fault::RankFailure;

// Body of every forked rank, original or replacement: builds the Comm and
// runs rank_main behind one guard, then _exits with its code.
[[noreturn]] void child_main(int rank, int incarnation,
                             const std::function<std::vector<Fd>()>& wire,
                             Fd control,
                             const std::function<int(Comm&)>& rank_main) {
#ifdef __linux__
  // Die with the parent: nothing a rank does should outlive the launcher.
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
#endif
  int code = 1;
  try {
    // Mesh wiring happens inside the guard: a transport that cannot reach
    // its peers (rendezvous timeout, refused connect) exits nonzero and
    // the parent reports it, instead of unwinding into the fork's copy of
    // the parent stack.
    Comm comm(rank, wire(), std::move(control), incarnation);
    code = rank_main(comm);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[rank %d%s] fatal: %s\n", rank,
                 incarnation > 0 ? "*" : "", e.what());
    code = 1;
  } catch (...) {
    std::fprintf(stderr, "[rank %d] fatal: unknown exception\n", rank);
    code = 1;
  }
  // _exit, not exit: the child shares the parent's atexit state and stdio
  // with siblings; run no global destructors in a forked worker.
  std::fflush(nullptr);
  ::_exit(code);
}

void record_exit(RankExit& e, int status) {
  if (WIFEXITED(status)) {
    e.exited = true;
    e.exit_code = WEXITSTATUS(status);
  } else if (WIFSIGNALED(status)) {
    e.signaled = true;
    e.term_signal = WTERMSIG(status);
  }
}

// Tears down every still-running rank (pid > 0) and reaps it into `exits`,
// marking killed_by_launcher. With a grace budget the group first gets
// SIGTERM (a chance to flush traces and metrics before dying); ranks still
// alive at the deadline get SIGKILL. Blocks until all are reaped.
void kill_group(std::vector<pid_t>& pids, std::vector<RankExit>& exits,
                double grace_seconds) {
  const int n = static_cast<int>(pids.size());
  bool any = false;
  for (pid_t pid : pids) any = any || pid > 0;
  if (!any) return;
  if (grace_seconds > 0) {
    for (pid_t pid : pids)
      if (pid > 0) ::kill(pid, SIGTERM);
    const auto kill_at =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(grace_seconds));
    for (;;) {
      bool alive = false;
      for (int r = 0; r < n; ++r) {
        pid_t& pid = pids[static_cast<std::size_t>(r)];
        if (pid < 0) continue;
        int status = 0;
        const pid_t got = ::waitpid(pid, &status, WNOHANG);
        if (got == pid) {
          record_exit(exits[static_cast<std::size_t>(r)], status);
          exits[static_cast<std::size_t>(r)].killed_by_launcher = true;
          pid = -1;
        } else {
          alive = true;
        }
      }
      if (!alive || std::chrono::steady_clock::now() >= kill_at) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  for (pid_t pid : pids)
    if (pid > 0) ::kill(pid, SIGKILL);
  for (int r = 0; r < n; ++r) {
    pid_t& pid = pids[static_cast<std::size_t>(r)];
    if (pid < 0) continue;
    int status = 0;
    ::waitpid(pid, &status, 0);
    record_exit(exits[static_cast<std::size_t>(r)], status);
    exits[static_cast<std::size_t>(r)].killed_by_launcher = true;
    pid = -1;
  }
}

// Ends the supervisor's scope — by return or by a throw (a failed fork or
// waitpid, a malformed control message) — with every rank reaped.
// PDEATHSIG fires only when the forking *thread* exits, so inside a
// long-lived caller the children would otherwise outlive the launcher.
struct GroupGuard {
  std::vector<pid_t>& pids;
  std::vector<RankExit>& exits;
  double grace_seconds;
  ~GroupGuard() { kill_group(pids, exits, grace_seconds); }
};

struct Death {
  int rank;
  RankFailure failure;
  int code;  // what first_failure would be
};

}  // namespace

LaunchReport run_ranks_report(int nranks,
                              const std::function<int(Comm&)>& rank_main,
                              const LaunchOptions& opts) {
  HQR_CHECK(nranks >= 1, "need at least one rank, got " << nranks);
  std::unique_ptr<Transport> transport = make_transport(opts.transport);
  transport->prepare(nranks);

  // With recovery on, one control socketpair per rank, created before any
  // fork so the original children inherit them (mirrors the unix
  // transport's mesh dance). With it off no channel exists, and the 5 ms
  // poll of the supervision loop below is a plain sleep.
  const auto n = static_cast<std::size_t>(nranks);
  std::vector<Fd> ctrl(n);        // launcher side
  std::vector<Fd> ctrl_child(n);  // rank side
  if (opts.max_recoveries > 0)
    for (std::size_t r = 0; r < n; ++r)
      std::tie(ctrl[r], ctrl_child[r]) = stream_pair();

  LaunchReport report;
  report.ranks.resize(n);
  std::vector<pid_t> pids(n, -1);
  std::vector<char> done(n, 0);
  std::vector<int> incarnation(n, 0);
  // sent_replace[s][q]: ReplacePeer messages sent to rank s about its link
  // to q — the launcher's mirror of s's Comm epoch for that link, used to
  // drop stale/duplicate LinkDown reports.
  std::vector<std::vector<int>> sent_replace(n, std::vector<int>(n, 0));
  int alive = 0;
  const double t0 = monotonic_seconds();

  // Forks rank r's next incarnation; `wire` builds its mesh in the child.
  const auto spawn = [&](int r, Fd control,
                         const std::function<std::vector<Fd>()>& wire) {
    std::fflush(nullptr);  // don't duplicate buffered output into children
    const pid_t pid = ::fork();
    HQR_CHECK(pid >= 0, "fork failed for rank " << r);
    if (pid == 0) {
      // The launcher's channel ends and the siblings' are not ours.
      ctrl.clear();
      ctrl_child.clear();
      child_main(r, incarnation[static_cast<std::size_t>(r)], wire,
                 std::move(control), rank_main);
    }
    pids[static_cast<std::size_t>(r)] = pid;
    ++alive;
  };

  const auto recover = [&](int r) {
    ++report.replacements_forked;
    auto new_ctrl = stream_pair();
    std::vector<Fd> mesh(n);
    for (int s = 0; s < nranks; ++s) {
      if (s == r) continue;
      auto pair = stream_pair();
      mesh[static_cast<std::size_t>(s)] = std::move(pair.first);
      if (pids[static_cast<std::size_t>(s)] > 0 &&
          !done[static_cast<std::size_t>(s)]) {
        // The liveness check above is inherently racy (the supervision
        // loop polls every 5 ms): rank s can die or finish between it and
        // this sendmsg, which then reports EPIPE — or ECONNRESET if s went
        // down with an unread control message in its queue. Either way the
        // process is gone, the next reap pass classifies the death, and
        // the replacement sees EOF on this link exactly as if s had been
        // reaped before recover() ran.
        try {
          send_control(ctrl[static_cast<std::size_t>(s)].get(),
                       ControlOp::ReplacePeer, r, 0, pair.second.get());
          ++sent_replace[static_cast<std::size_t>(s)]
                        [static_cast<std::size_t>(r)];
        } catch (const std::exception&) {
        }
      }
      // A dead/done survivor's end just closes: the replacement sees EOF on
      // that link, marks it down, and that rank's own recovery (if any)
      // re-wires it.
    }
    // The replacement's Comm starts with fresh epochs.
    for (std::size_t q = 0; q < n; ++q)
      sent_replace[static_cast<std::size_t>(r)][q] = 0;
    ctrl[static_cast<std::size_t>(r)] = std::move(new_ctrl.first);
    ++incarnation[static_cast<std::size_t>(r)];
    spawn(r, std::move(new_ctrl.second), [&] { return std::move(mesh); });
    // Parent copies of `mesh` close on scope exit.
  };

  std::vector<Death> deaths;
  const auto reap_one = [&](int r, int status) {
    pids[static_cast<std::size_t>(r)] = -1;
    --alive;
    RankExit& e = report.ranks[static_cast<std::size_t>(r)];
    e = RankExit{};
    record_exit(e, status);
    if (e.ok()) {
      done[static_cast<std::size_t>(r)] = 1;
      return;
    }
    Death d;
    d.rank = r;
    d.failure.rank = r;
    d.failure.seconds = monotonic_seconds() - t0;
    if (e.signaled) {
      d.failure.reason = FailureReason::KilledBySignal;
      d.failure.detail = e.term_signal;
      d.code = 1;
    } else {
      d.failure.reason = FailureReason::NonzeroExit;
      d.failure.detail = e.exit_code;
      d.code = e.exit_code;
    }
    deaths.push_back(d);
  };

  {
    GroupGuard guard{pids, report.ranks, opts.term_grace_seconds};
    for (int r = 0; r < nranks; ++r)
      spawn(r, std::move(ctrl_child[static_cast<std::size_t>(r)]),
            [&] { return transport->connect_rank(r); });
    transport->parent_release();  // parent holds no mesh descriptors

    bool fatal = false;
    while (alive > 0) {
      // Reap pass.
      bool reaped = false;
      for (int r = 0; r < nranks; ++r) {
        pid_t& pid = pids[static_cast<std::size_t>(r)];
        if (pid <= 0) continue;
        int status = 0;
        const pid_t got = ::waitpid(pid, &status, WNOHANG);
        if (got == 0) continue;
        HQR_CHECK(got == pid, "waitpid failed for rank " << r);
        reap_one(r, status);
        reaped = true;
      }
      for (const Death& d : deaths) {
        report.failures.push_back(d.failure);
        std::fprintf(stderr, "[launcher] %s\n", d.failure.describe().c_str());
        // Only crash deaths (signals) are recoverable. A nonzero _exit
        // means the rank itself concluded the run failed — a check
        // tripped, its watchdog fired, or a peer's Abort reached it — and
        // a replacement would re-execute straight into the same
        // deterministic failure (or into a mesh that is already tearing
        // down).
        if (d.rank != 0 && d.failure.reason == FailureReason::KilledBySignal &&
            report.replacements_forked < opts.max_recoveries) {
          recover(d.rank);
        } else {
          if (report.first_failure == 0) {
            report.first_failure = d.code;
            report.failed_rank = d.rank;
          }
          fatal = true;
        }
      }
      deaths.clear();
      if (fatal || alive == 0) break;
      if (opts.timeout_seconds > 0 &&
          monotonic_seconds() >= t0 + opts.timeout_seconds) {
        std::fprintf(stderr,
                     "[launcher] timeout after %.1fs, killing %d rank(s)\n",
                     opts.timeout_seconds, alive);
        report.timed_out = true;
        for (int r = 0; r < nranks; ++r) {
          if (pids[static_cast<std::size_t>(r)] <= 0) continue;
          RankFailure f;
          f.rank = r;
          f.reason = FailureReason::LaunchTimeout;
          f.seconds = monotonic_seconds() - t0;
          report.failures.push_back(f);
        }
        break;
      }

      // Control pass: poll the live ranks' channels for LinkDown reports
      // (5 ms doubles as the supervision loop's sleep).
      std::vector<pollfd> fds;
      std::vector<int> who;
      for (int r = 0; r < nranks; ++r) {
        if (pids[static_cast<std::size_t>(r)] <= 0 ||
            !ctrl[static_cast<std::size_t>(r)].valid())
          continue;
        pollfd p{};
        p.fd = ctrl[static_cast<std::size_t>(r)].get();
        p.events = POLLIN;
        fds.push_back(p);
        who.push_back(r);
      }
      const int rc = ::poll(fds.data(), fds.size(), reaped ? 0 : 5);
      if (rc <= 0) continue;
      for (std::size_t i = 0; i < fds.size(); ++i) {
        if (!(fds[i].revents & (POLLIN | POLLHUP))) continue;
        const int s = who[i];
        if (pids[static_cast<std::size_t>(s)] <= 0) continue;  // reaped above
        if (!(fds[i].revents & POLLIN)) continue;  // bare HUP: reap pass's job
        ControlMsg m;
        Fd passed;
        bool got_msg = false;
        try {
          got_msg = recv_control(ctrl[static_cast<std::size_t>(s)].get(), &m,
                                 &passed, monotonic_seconds() + 5.0);
        } catch (const std::exception&) {
          // ECONNRESET: rank s died with an unread control message in its
          // queue (e.g. a ReplacePeer it never consumed before exiting).
          // Same meaning as the clean EOF below — the process is gone and
          // waitpid is the authority on what happened to it.
        }
        if (!got_msg) continue;  // EOF: the next reap pass classifies it
        if (static_cast<ControlOp>(m.op) != ControlOp::LinkDown) continue;
        const int q = m.peer;
        HQR_CHECK(q >= 0 && q < nranks && q != s,
                  "malformed LinkDown from rank " << s);
        {
          RankFailure f;
          f.rank = q;
          f.detected_by = s;
          f.reason = FailureReason::PeerClosed;
          f.seconds = monotonic_seconds() - t0;
          report.failures.push_back(f);
        }
        // Stale: a ReplacePeer for this link is already in flight (the
        // other endpoint reported first, or a rank recovery re-wired it).
        if (m.epoch != sent_replace[static_cast<std::size_t>(s)]
                                   [static_cast<std::size_t>(q)])
          continue;
        // The peer process may be dead but not yet reaped — then this is a
        // rank failure, not a link failure; leave it to the reap pass.
        pid_t& qpid = pids[static_cast<std::size_t>(q)];
        if (qpid <= 0) continue;
        int status = 0;
        if (::waitpid(qpid, &status, WNOHANG) == qpid) {
          reap_one(q, status);
          continue;  // deaths handled at the top of the next iteration
        }
        // Both endpoints live: chaos DropLink. Re-wire just this link.
        // "Live" is only as fresh as the waitpid above: a SIGKILLed q's
        // sockets close before it is reapable, and its send then reports
        // EPIPE (ECONNRESET with unread control data queued). So q gets
        // its end first, and if it cannot, s's link stays down for the
        // rank recovery to re-wire: a new link to a dying q would close
        // at once, and each such round would replay s's SentTileLog into
        // a dead socket. If only s's send fails, q's half-rewired link
        // sees EOF (its peer fd closes with `pair`) and reports LinkDown
        // at the bumped epoch. Count only the sends that landed, so the
        // epoch book matches what each rank received.
        auto pair = stream_pair();
        try {
          send_control(ctrl[static_cast<std::size_t>(q)].get(),
                       ControlOp::ReplacePeer, s, 0, pair.second.get());
        } catch (const std::exception&) {
          continue;
        }
        ++sent_replace[static_cast<std::size_t>(q)]
                      [static_cast<std::size_t>(s)];
        try {
          send_control(ctrl[static_cast<std::size_t>(s)].get(),
                       ControlOp::ReplacePeer, q, 0, pair.first.get());
        } catch (const std::exception&) {
          continue;
        }
        ++sent_replace[static_cast<std::size_t>(s)]
                      [static_cast<std::size_t>(q)];
        ++report.links_rewired;
      }
    }
  }  // the guard reaps every rank still running

  if (report.timed_out && report.first_failure == 0) report.first_failure = 1;
  return report;
}

int run_ranks(int nranks, const std::function<int(Comm&)>& rank_main,
              const LaunchOptions& opts) {
  return run_ranks_report(nranks, rank_main, opts).first_failure;
}

}  // namespace hqr::net
