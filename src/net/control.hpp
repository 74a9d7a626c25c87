// Parent<->rank control channel of the rank launcher when recovery is on
// (net/launcher.hpp, LaunchOptions::max_recoveries > 0): a private AF_UNIX
// socketpair per rank, owned by the rank's Comm and separate from the rank
// mesh, carrying tiny fixed-size messages and — for link re-wiring — file
// descriptors as SCM_RIGHTS ancillary data.
//
//   ReplacePeer  parent -> rank: "your link to `peer` has been re-wired";
//                the new socket rides along as a passed descriptor. The
//                Comm pump installs it, bumps the link epoch and invokes
//                the on_peer_replaced hook (which replays the SentTileLog).
//   LinkDown    rank -> parent: "my link to `peer` died" (EOF or hard
//                socket error), stamped with the rank's current epoch for
//                that link. The parent uses the epoch to deduplicate the
//                two reports a severed link produces (one per endpoint)
//                and to discard reports that predate a re-wire it already
//                performed.
//
// The channel is deliberately not framed like the mesh (net/message.hpp):
// descriptors can only travel as ancillary data of a sendmsg, and the
// launcher must parse it without a Comm instance.
#pragma once

#include <cstdint>

#include "net/socket.hpp"

namespace hqr::net {

enum class ControlOp : std::uint32_t {
  ReplacePeer = 1,  // parent -> rank, carries one descriptor
  LinkDown = 2,     // rank -> parent
};

struct ControlMsg {
  std::uint32_t op = 0;
  std::int32_t peer = -1;
  std::int32_t epoch = 0;
  std::int32_t reserved = 0;
};

inline void send_control(int sock, ControlOp op, int peer, int epoch,
                         int fd_to_pass = -1) {
  ControlMsg m;
  m.op = static_cast<std::uint32_t>(op);
  m.peer = peer;
  m.epoch = epoch;
  send_with_fd(sock, &m, sizeof(m), fd_to_pass);
}

// Returns false on orderly EOF (the peer process is gone).
inline bool recv_control(int sock, ControlMsg* m, Fd* fd, double deadline) {
  return recv_with_fd(sock, m, sizeof(*m), fd, deadline);
}

}  // namespace hqr::net
