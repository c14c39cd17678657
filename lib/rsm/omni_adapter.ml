(* Omni-Paxos behind the uniform protocol interface, plus the two Table 1
   variants: the same core with different Ballot Leader Election options. *)

module R = Omnipaxos.Replica

(* The replica is rebuilt on the same stable storage by fail-recovery
   restarts, so the core keeps the builder next to it. *)
type replica = { mutable replica : R.t; build : unit -> R.t }

module Core (V : sig
  val name : string
  val qc_signal : bool
  val connectivity_priority : bool
end) =
struct
  type t = replica
  type msg = R.msg

  let name = V.name
  let frame = "omnipaxos"
  let extra_trace = Adapter.No_extra

  let create ?batching ?compaction ~id ~peers ~election_ticks ~rand:_ ~send
      ~on_decide ~on_install ~on_compact:_ () =
    let storage = R.Storage.create () in
    let build () =
      R.create ~id ~peers ~qc_signal:V.qc_signal
        ~connectivity_priority:V.connectivity_priority ~hb_ticks:election_ticks
        ?batching ?compaction ~storage ~send ~on_decide
        ~on_snapshot:on_install ()
    in
    { replica = build (); build }

  let scan c cache ~from ~upto:_ =
    Adapter.scan_sequence_paxos (R.sequence_paxos c.replica) cache ~from

  let handle c ~src msg = R.handle c.replica ~src msg
  let tick c = R.tick c.replica
  let session_reset c ~peer = R.session_reset c.replica ~peer

  (* Fail-recovery: volatile state is lost, the replica is rebuilt on its old
     storage and runs the recovery protocol. The skeleton's scan cursor stays
     valid because the decided prefix lives in the storage and only ever
     grows. *)
  let restart c =
    c.replica <- c.build ();
    R.recover c.replica

  let propose c cmd = R.propose_cmd c.replica cmd
  let is_leader c = R.is_leader c.replica
  let leader_pid c = R.leader_pid c.replica
  let decided_index c = R.decided_idx c.replica
  let msg_size = R.msg_size
end

include Adapter.Make (Core (struct
  let name = "Omni-Paxos"
  let qc_signal = true
  let connectivity_priority = false
end))

let replica t = (node t).replica

(* Ablation variant: heartbeats carry no QC flag (the "QC status heartbeats"
   column of Table 1). Quorum-loss recovery is expected to fail. *)
module No_qc_signal = Adapter.Make (Core (struct
  let name = "Omni (no QC flag)"
  let qc_signal = false
  let connectivity_priority = false
end))

(* §8 optimisation variant: takeover ballots carry connectivity, so the
   best-connected simultaneous candidate wins ties. *)
module Connectivity_priority = Adapter.Make (Core (struct
  let name = "Omni (conn-prio)"
  let qc_signal = true
  let connectivity_priority = true
end))
