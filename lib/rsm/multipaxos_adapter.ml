(* Multi-Paxos behind the uniform protocol interface. *)

module N = Multipaxos.Node

module Core = struct
  type t = N.t
  type msg = N.msg

  let name = "Multi-Paxos"
  let frame = "multipaxos"

  let extra_trace =
    Adapter.Log_and_leaders
      {
        term = (fun n -> (N.current_ballot n).N.n);
        last_idx = (fun n -> N.next_slot n - 1);
        snapshot = N.snapshot;
      }

  let create ?batching ?compaction ~id ~peers ~election_ticks ~rand ~send
      ~on_decide ~on_install ~on_compact () =
    let k = Adapter.local_knobs ?batching ?compaction () in
    N.create ~id ~peers ~election_ticks ~rand ~max_batch:k.max_batch
      ~eager_batch:k.eager_batch ~snapshot_interval:k.snapshot_interval
      ~retain:k.retain ~on_compact ~on_install ~send ~on_decide ()

  (* Slots below the trim point live only in the snapshot; the install hook
     already jumped the cursor past them, the clamp is belt-and-braces. *)
  let scan n cache ~from ~upto =
    let log = N.decided_log n in
    for i = max from (Replog.Log.first_idx log) to upto - 1 do
      Adapter.note_cmd cache (Replog.Log.get log i)
    done

  let handle = N.handle
  let tick = N.tick
  let session_reset = N.session_reset

  (* Multi-Paxos exposes no storage abstraction: model synchronous full-state
     persistence — a crash is a pause plus lost in-flight traffic, not an
     amnesia restart (which would forget Phase-1 promises and break
     safety). *)
  let restart _ = ()
  let propose = N.propose
  let is_leader = N.is_leader
  let leader_pid = N.leader_pid
  let decided_index = N.decided_length
  let msg_size = N.msg_size
end

include Adapter.Make (Core)
