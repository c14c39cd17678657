(* Raft behind the uniform protocol interface, in its two evaluated
   configurations: plain, and with PreVote + CheckQuorum ("Raft PV+CQ"). *)

module N = Raft.Node

module Core (V : sig
  val name : string
  val pv_cq : bool
end) =
struct
  type t = N.t
  type msg = N.msg

  let name = V.name
  let frame = "raft"

  let extra_trace =
    Adapter.Log_and_leaders
      {
        term = N.current_term;
        last_idx = (fun n -> N.log_length n - 1);
        snapshot = N.snapshot;
      }

  let create ?batching ?compaction ~id ~peers ~election_ticks ~rand ~send
      ~on_decide ~on_install ~on_compact () =
    let k = Adapter.local_knobs ?batching ?compaction () in
    N.create ~id ~voters:(id :: peers) ~pre_vote:V.pv_cq ~check_quorum:V.pv_cq
      ~max_batch:k.max_batch ~eager_batch:k.eager_batch
      ~snapshot_interval:k.snapshot_interval ~retain:k.retain ~on_compact
      ~on_install ~election_ticks ~rand ~persistent:(N.fresh_persistent ())
      ~send ~on_commit:on_decide ()

  let scan n cache ~from ~upto:_ =
    N.iter_committed n ~from (fun (e : N.entry) ->
        match e.N.data with
        | N.Cmd c -> Adapter.note_cmd cache c
        | N.Config _ -> ())

  let handle = N.handle
  let tick = N.tick
  let session_reset = N.session_reset

  (* Term, vote and log are Raft's persistent state (kept inside the node);
     [N.recover] resets the volatile role/leader/commit-index view, which is
     re-learned from the next leader's appends. *)
  let restart = N.recover
  let propose = N.propose
  let is_leader = N.is_leader
  let leader_pid = N.leader_pid
  let decided_index = N.commit_idx
  let msg_size = N.msg_size
end

module Plain = Adapter.Make (Core (struct
  let name = "Raft"
  let pv_cq = false
end))

module Pv_cq = Adapter.Make (Core (struct
  let name = "Raft PV+CQ"
  let pv_cq = true
end))
