(* VR leader election (+ Sequence Paxos log) behind the uniform protocol
   interface. *)

module N = Vr.Node
module Sp = Omnipaxos.Sequence_paxos

module Core = struct
  type t = N.t
  type msg = N.msg

  let name = "VR"
  let frame = "vr"

  (* The embedded Sequence Paxos emits the log events and the install;
     the adapter adds leader/view transitions. *)
  let extra_trace = Adapter.Leaders N.view

  let create ?batching ?compaction ~id ~peers ~election_ticks ~rand:_ ~send
      ~on_decide ~on_install ~on_compact:_ () =
    N.create ~id ~peers ~election_ticks ?batching ?compaction
      ~on_snapshot:on_install ~send ~on_decide ()

  let scan n cache ~from ~upto:_ =
    Adapter.scan_sequence_paxos (N.sequence_paxos n) cache ~from

  let handle = N.handle
  let tick = N.tick
  let session_reset = N.session_reset

  (* VR's node (view + embedded Sequence Paxos) has no injectable storage:
     like Multi-Paxos, crashes model synchronous full-state persistence. *)
  let restart _ = ()
  let propose n cmd = N.propose n (Omnipaxos.Entry.Cmd cmd)
  let is_leader = N.is_leader
  let leader_pid = N.leader_pid
  let decided_index n = Sp.decided_idx (N.sequence_paxos n)
  let msg_size = N.msg_size
end

include Adapter.Make (Core)
