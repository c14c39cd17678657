module Log = Replog.Log

type msg =
  | Prepare of {
      n : Ballot.t;
      acc_rnd : Ballot.t;
      log_idx : int;
      decided_idx : int;
    }
  | Promise of {
      n : Ballot.t;
      acc_rnd : Ballot.t;
      log_idx : int;
      decided_idx : int;
      suffix_from : int;
      suffix : Entry.t list;
      snapshot : (int * string) option;
    }
  | Accept_sync of {
      n : Ballot.t;
      sync_idx : int;
      suffix : Entry.t list;
      decided_idx : int;
      snapshot : (int * string) option;
          (* state snapshot covering [0, idx), for followers below the
             leader's trim point *)
    }
  | Accept of {
      n : Ballot.t;
      start_idx : int;
      entries : Entry.t list;
      decided_idx : int;
    }
  | Accepted of { n : Ballot.t; log_idx : int }
  | Decide of { n : Ballot.t; decided_idx : int }
  | Trim of { n : Ballot.t; trim_idx : int }
  | Prepare_req

type persistent = {
  log : Entry.t Log.t;
  mutable prom_rnd : Ballot.t;
  mutable acc_rnd : Ballot.t;
  mutable decided_idx : int;
  (* Snapshot state backing log compaction: [app] is the KV state machine
     for exactly the trimmed prefix [0, Log.first_idx log), and
     [snap_client_cmds] counts the client commands (id >= 0) inside it.
     Durable alongside the log: a snapshot must survive the crash of the
     node that trimmed below it, or the prefix would be lost forever. *)
  mutable app : Replog.Kv.t;
  mutable snap_client_cmds : int;
}

type role = Follower | Leader_prepare | Leader_accept

let role_is_follower = function
  | Follower -> true
  | Leader_prepare | Leader_accept -> false

let role_is_leader_accept = function
  | Leader_accept -> true
  | Follower | Leader_prepare -> false

type promise_info = {
  p_acc_rnd : Ballot.t;
  p_log_idx : int;
  p_decided_idx : int;
  p_suffix_from : int;
  p_suffix : Entry.t list;
  p_snapshot : (int * string) option;
}

type t = {
  id : int;
  peers : int list;
  quorum : int;
  dur : persistent;
  send : dst:int -> msg -> unit;
  on_decide : int -> unit;
  snapshotter : (unit -> string) option;
  on_snapshot : int -> string -> unit;
  batching : Batching.config;
  compaction : Compaction.config;
  mutable role : role;
  (* Prepare-phase state. *)
  promises : (int, promise_info) Hashtbl.t;
  buffer : Entry.t Queue.t;
  (* Accept-phase state. *)
  synced : (int, unit) Hashtbl.t;
  acc_idx : (int, int) Hashtbl.t;
  sent_idx : (int, int) Hashtbl.t;
  (* Adaptive-batching state (see batching.mli). [batch_cap] is the AIMD
     per-Accept entry cap; [unflushed] counts leader appends since the last
     flush (the size trigger); [ticks_since_flush] drives the deadline.
     [acked_idx]/[ack_pending] implement follower-side ack coalescing. *)
  mutable batch_cap : int;
  mutable unflushed : int;
  mutable ticks_since_flush : int;
  mutable acked_idx : int;
  mutable ack_pending : bool;
  (* Index of the stop-sign entry in the log, if any. *)
  mutable ss_idx : int option;
}

let fresh_persistent () =
  {
    log = Log.create ();
    prom_rnd = Ballot.bottom;
    acc_rnd = Ballot.bottom;
    decided_idx = 0;
    app = Replog.Kv.create ();
    snap_client_cmds = 0;
  }

let trace_ballot (b : Ballot.t) =
  { Obs.Event.n = b.Ballot.n; prio = b.Ballot.priority; pid = b.Ballot.pid }

let find_stop_sign_from log ~from =
  let found = ref None in
  Log.iteri_from log ~from (fun i e ->
      if Option.is_none !found && Entry.is_stop_sign e then found := Some i);
  !found

let create ~id ~peers ~persistent ?(batching = Batching.fixed)
    ?(compaction = Compaction.disabled) ~send ?(on_decide = fun _ -> ())
    ?snapshotter ?(on_snapshot = fun _ _ -> ()) () =
  let n_total = List.length peers + 1 in
  let batching = Batching.validated batching in
  let compaction = Compaction.validated compaction in
  {
    id;
    peers;
    quorum = (n_total / 2) + 1;
    dur = persistent;
    send;
    on_decide;
    snapshotter;
    on_snapshot;
    batching;
    compaction;
    role = Follower;
    promises = Hashtbl.create 8;
    buffer = Queue.create ();
    synced = Hashtbl.create 8;
    acc_idx = Hashtbl.create 8;
    sent_idx = Hashtbl.create 8;
    batch_cap = batching.Batching.min_batch;
    unflushed = 0;
    ticks_since_flush = 0;
    acked_idx = 0;
    ack_pending = false;
    ss_idx = find_stop_sign_from persistent.log ~from:0;
  }

let id t = t.id
let role t = t.role
let batching t = t.batching

let batch_cap t =
  if t.batching.Batching.adaptive then t.batch_cap
  else t.batching.Batching.max_batch
let is_leader t = not (role_is_follower t.role)
let current_round t = t.dur.prom_rnd

let leader_pid t =
  if Ballot.equal t.dur.prom_rnd Ballot.bottom then None
  else Some t.dur.prom_rnd.Ballot.pid

let decided_idx t = t.dur.decided_idx
let log_length t = Log.length t.dur.log
(* Entries below the trim point are unavailable; reads clamp to it. *)
let read_decided t ~from =
  let from = max from (Log.first_idx t.dur.log) in
  Log.sub t.dur.log ~pos:from ~len:(t.dur.decided_idx - from)
let read_log t = t.dur.log
let is_stopped t = Option.is_some t.ss_idx

let stop_sign t =
  match t.ss_idx with
  | Some i when t.dur.decided_idx > i -> (
      match Log.get t.dur.log i with
      | Entry.Stop_sign ss -> Some ss
      | Entry.Cmd _ -> None)
  | Some _ | None -> None

(* Replace the log suffix during synchronisation, keeping [ss_idx] accurate
   (a non-chosen stop-sign can be overwritten, Figure 3a). *)
let sync_log t ~at suffix =
  Log.set_suffix t.dur.log ~at suffix;
  (match t.ss_idx with Some i when i >= at -> t.ss_idx <- None | _ -> ());
  if Option.is_none t.ss_idx then
    t.ss_idx <-
      Option.map (fun i -> at + i)
        (List.find_index Entry.is_stop_sign suffix)

let append_entry t e =
  Log.append t.dur.log e;
  if Entry.is_stop_sign e && Option.is_none t.ss_idx then
    t.ss_idx <- Some (Log.length t.dur.log - 1)

(* Proposal spans key off this event: the moment a client command enters the
   leader's log. Stop-signs carry cmd_id -1. *)
let trace_proposed t e =
  if Obs.Trace.on () then
    Obs.Trace.emit ~node:t.id
      (Obs.Event.Proposed
         {
           log_idx = Log.length t.dur.log - 1;
           cmd_id =
             (match e with
             | Entry.Cmd c -> c.Replog.Command.id
             | Entry.Stop_sign _ -> -1);
         })

(* ------------------------------------------------------------------ *)
(* Snapshotting and log compaction                                     *)
(* ------------------------------------------------------------------ *)

let first_idx t = Log.first_idx t.dur.log

(* Fold the entries [first_idx, upto) into the durable snapshot state
   machine. Must run before every trim so the invariant "[dur.app] covers
   exactly [0, first_idx)" holds at all times; replaying the remaining log
   on top of the snapshot then never double-applies a command. *)
let advance_app t ~upto =
  let from = Log.first_idx t.dur.log in
  if upto > from then
    List.iter
      (fun e ->
        match e with
        | Entry.Cmd c ->
            (match Replog.Kv.apply t.dur.app c with
            | Replog.Kv.Ok_unit | Replog.Kv.Value _ -> ());
            if c.Replog.Command.id >= 0 then
              t.dur.snap_client_cmds <- t.dur.snap_client_cmds + 1
        | Entry.Stop_sign _ -> ())
      (Log.sub t.dur.log ~pos:from ~len:(upto - from))

(* The encoded snapshot covering [0, first_idx): the application's own
   [snapshotter] when one is registered, the internal KV snapshot
   otherwise. *)
let snapshot_bytes t =
  match t.snapshotter with
  | Some take -> take ()
  | None ->
      Replog.Snapshot.encode ~last_idx:(Log.first_idx t.dur.log)
        ~client_cmds:t.dur.snap_client_cmds t.dur.app

let snapshot t = snapshot_bytes t
let snapshot_client_cmds t = t.dur.snap_client_cmds

let trace_trim t ~upto ~entries =
  if Obs.Trace.on () then
    Obs.Trace.emit ~node:t.id (Obs.Event.Log_trimmed { upto; entries })

(* Install a state snapshot covering [0, idx): the log restarts at [idx]
   and the durable snapshot state machine adopts the payload when it is
   the internal envelope (an application [snapshotter]'s opaque bytes are
   handled entirely by [on_snapshot]). Discards any local entries — the
   caller appends the authoritative suffix on top. *)
let install_snapshot t ~idx ~payload =
  Log.reset_to t.dur.log ~offset:idx;
  t.ss_idx <- None;
  t.dur.decided_idx <- max t.dur.decided_idx idx;
  (match Replog.Snapshot.decode payload with
  | Ok s ->
      t.dur.app <- Replog.Snapshot.restore s;
      t.dur.snap_client_cmds <- s.Replog.Snapshot.client_cmds
  | Error _ -> ());
  if Obs.Trace.on () then
    Obs.Trace.emit ~node:t.id
      (Obs.Event.Snapshot_installed { idx; bytes = String.length payload });
  t.on_snapshot idx payload

(* Adopt a snapshot + entry suffix pair from a peer whose log starts at
   [idx]. A snapshot at or below our decided index is stale — the
   application already applied that prefix, and [on_decide] never re-fires
   for it, so re-installing would silently roll the state machine back
   (e.g. a leader answering two Promises from the same session-reset
   sends the same install twice; the second arrives after we advanced).
   Skip it and splice the suffix into the log instead, dropping any
   overlap below our own trim floor. *)
let adopt_snapshot_suffix t ~idx ~payload ~suffix =
  if idx > t.dur.decided_idx then begin
    install_snapshot t ~idx ~payload;
    sync_log t ~at:idx suffix
  end
  else begin
    let at = max idx (Log.first_idx t.dur.log) in
    let suffix = List.filteri (fun i _ -> idx + i >= at) suffix in
    sync_log t ~at suffix
  end

(* Largest log index accepted (in this round) by a quorum — the same
   statistic [try_decide] uses, reused as the compaction watermark bound:
   never trim an entry some quorum has not confirmed, or the Prepare phase
   of a future leader could need it. *)
let quorum_acc_idx t =
  let values =
    Log.length t.dur.log
    :: List.map snd
        (Replog.Det.sorted_bindings ~compare_key:Int.compare t.acc_idx)
  in
  if List.length values >= t.quorum then begin
    let sorted = List.sort (fun a b -> Int.compare b a) values in
    List.nth sorted (t.quorum - 1)
  end
  else 0

(* Never trim a decided stop-sign away: [stop_sign] reads it from the log
   (late-transitioning servers in a reconfiguration still need it), and the
   snapshot state machine does not carry it. *)
let trim_cap t ~upto =
  match t.ss_idx with Some i -> min upto i | None -> upto

(* Leader-side compaction trigger, run whenever the decided index advances:
   once [snapshot_interval] decided entries accumulate above the trim
   point, snapshot and trim up to the quorum-confirmed watermark (minus
   [retain]) and tell the followers to do the same. Deliberately quorum-
   based rather than all-peers: a crashed or partitioned straggler must not
   block compaction — it is repaired later with a snapshot install. *)
let maybe_compact t =
  if Compaction.enabled t.compaction && role_is_leader_accept t.role then begin
    let floor = Log.first_idx t.dur.log in
    if
      t.dur.decided_idx - floor >= t.compaction.Compaction.snapshot_interval
    then begin
      let upto =
        trim_cap t
          ~upto:
            (min
               (t.dur.decided_idx - t.compaction.Compaction.retain)
               (quorum_acc_idx t))
      in
      if upto > floor then begin
        advance_app t ~upto;
        Log.trim t.dur.log ~upto;
        if Obs.Trace.on () then
          Obs.Trace.emit ~node:t.id
            (Obs.Event.Snapshot_taken
               { idx = upto; bytes = String.length (snapshot_bytes t) });
        trace_trim t ~upto ~entries:(upto - floor);
        let m = Trim { n = t.dur.prom_rnd; trim_idx = upto } in
        List.iter (fun p -> t.send ~dst:p m) t.peers
      end
    end
  end

let advance_decided t d =
  let d = min d (Log.length t.dur.log) in
  if d > t.dur.decided_idx then begin
    t.dur.decided_idx <- d;
    if Obs.Trace.on () then
      Obs.Trace.emit ~node:t.id
        (Obs.Event.Decided { b = trace_ballot t.dur.acc_rnd; decided_idx = d });
    t.on_decide d;
    maybe_compact t
  end

(* Leader: largest index accepted (in this round) by a quorum. *)
let try_decide t =
  let values =
    Log.length t.dur.log
    :: List.map snd (Replog.Det.sorted_bindings ~compare_key:Int.compare t.acc_idx)
  in
  if List.length values >= t.quorum then begin
    let sorted = List.sort (fun a b -> Int.compare b a) values in
    let decidable = List.nth sorted (t.quorum - 1) in
    if decidable > t.dur.decided_idx then begin
      advance_decided t decidable;
      let decide = Decide { n = t.dur.prom_rnd; decided_idx = decidable } in
      Replog.Det.iter_sorted ~compare_key:Int.compare
        (fun f () -> t.send ~dst:f decide)
        t.synced
    end
  end

(* Send the AcceptSync that makes follower [f]'s log a prefix of ours: if the
   follower accepted in the same round as the adopted log, its log is already
   a consistent prefix and only the missing tail is sent; otherwise its
   non-chosen suffix may conflict and is overwritten from its decided index. *)
let accept_sync_follower t ~dst ~(info : promise_info) ~max_acc_rnd =
  let wanted =
    if Ballot.equal info.p_acc_rnd max_acc_rnd then info.p_log_idx
    else info.p_decided_idx
  in
  let floor = Log.first_idx t.dur.log in
  (* A follower below our trim point (e.g. one that lost its disk) cannot be
     repaired with entries alone: ship a state snapshot covering the trimmed
     prefix, when the application provides one. Otherwise serve from the
     trim point — safe in the normal case, where the region below it is
     decided everywhere and already identical at the follower. *)
  let snapshot =
    if wanted < floor then
      if Option.is_some t.snapshotter || Compaction.enabled t.compaction then
        Some (floor, snapshot_bytes t)
      else None
    else None
  in
  let sync_idx = max wanted floor in
  let suffix = Log.suffix t.dur.log ~from:sync_idx in
  if Obs.Trace.on () then
    Obs.Trace.emit ~node:t.id
      (Obs.Event.Accept_sent
         {
           b = trace_ballot t.dur.prom_rnd;
           start_idx = sync_idx;
           count = List.length suffix;
         });
  t.send ~dst
    (Accept_sync
       {
         n = t.dur.prom_rnd;
         sync_idx;
         suffix;
         decided_idx = t.dur.decided_idx;
         snapshot;
       });
  Hashtbl.replace t.synced dst ();
  Hashtbl.replace t.sent_idx dst (Log.length t.dur.log)

(* Prepare phase completion: adopt the most updated log among the quorum of
   promises (P2c), append buffered proposals, and synchronise followers. *)
let complete_prepare t =
  let n = t.dur.prom_rnd in
  (* The leader's own state acts as a promise too. *)
  let best_src = ref t.id
  and best_key = ref (t.dur.acc_rnd, Log.length t.dur.log) in
  let consider src (acc_rnd, log_idx) =
    let better =
      let r = Ballot.compare acc_rnd (fst !best_key) in
      r > 0 || (r = 0 && log_idx > snd !best_key)
    in
    if better then begin
      best_src := src;
      best_key := (acc_rnd, log_idx)
    end
  in
  Replog.Det.iter_sorted ~compare_key:Int.compare
    (fun src info -> consider src (info.p_acc_rnd, info.p_log_idx))
    t.promises;
  (if !best_src <> t.id then
     let info = Hashtbl.find t.promises !best_src in
     (* A promiser that compacted past our log end leaves a gap no entry
        suffix can fill (and our entries below its trim floor may be stale
        non-chosen proposals): install its snapshot first, then adopt the
        suffix on top of it. *)
     match info.p_snapshot with
     | Some (idx, payload) ->
         adopt_snapshot_suffix t ~idx ~payload ~suffix:info.p_suffix
     | None -> sync_log t ~at:info.p_suffix_from info.p_suffix);
  let max_acc_rnd = fst !best_key in
  t.dur.acc_rnd <- n;
  (* Decided indexes reported by the quorum refer to chosen prefixes of the
     adopted log; adopt the largest. *)
  let max_decided =
    List.fold_left
      (fun acc (_, info) -> max acc info.p_decided_idx)
      t.dur.decided_idx
      (Replog.Det.sorted_bindings ~compare_key:Int.compare t.promises)
  in
  (* Append proposals buffered during the Prepare phase, unless the adopted
     log ends the configuration. *)
  Queue.iter
    (fun e ->
      if Option.is_none t.ss_idx then begin
        append_entry t e;
        trace_proposed t e
      end)
    t.buffer;
  Queue.clear t.buffer;
  t.role <- Leader_accept;
  Hashtbl.reset t.synced;
  Hashtbl.reset t.acc_idx;
  Hashtbl.reset t.sent_idx;
  advance_decided t max_decided;
  Replog.Det.iter_sorted ~compare_key:Int.compare
    (fun dst info -> accept_sync_follower t ~dst ~info ~max_acc_rnd)
    t.promises;
  try_decide t

let start_prepare t =
  t.role <- Leader_prepare;
  Hashtbl.reset t.promises;
  Hashtbl.reset t.synced;
  Hashtbl.reset t.acc_idx;
  Hashtbl.reset t.sent_idx;
  t.batch_cap <- t.batching.Batching.min_batch;
  t.unflushed <- 0;
  t.ticks_since_flush <- 0;
  t.ack_pending <- false;
  if Obs.Trace.on () then
    Obs.Trace.emit ~node:t.id
      (Obs.Event.Prepare_round
         {
           b = trace_ballot t.dur.prom_rnd;
           log_idx = Log.length t.dur.log;
           decided_idx = t.dur.decided_idx;
         });
  let prepare =
    Prepare
      {
        n = t.dur.prom_rnd;
        acc_rnd = t.dur.acc_rnd;
        log_idx = Log.length t.dur.log;
        decided_idx = t.dur.decided_idx;
      }
  in
  List.iter (fun peer -> t.send ~dst:peer prepare) t.peers;
  if t.quorum = 1 then complete_prepare t

let handle_leader t (b : Ballot.t) =
  if b.Ballot.pid = t.id then begin
    if Ballot.(b > t.dur.prom_rnd) then begin
      t.dur.prom_rnd <- b;
      start_prepare t
    end
  end
  else if Ballot.(b > t.dur.prom_rnd) then begin
    (* A higher round exists elsewhere: step down, and ask its leader for a
       Prepare — covers servers that started after the Prepare broadcast
       (e.g. a freshly migrated server joining a running configuration). *)
    if not (role_is_follower t.role) then t.role <- Follower;
    t.send ~dst:b.Ballot.pid Prepare_req
  end

let on_prepare t ~src ~n ~l_acc_rnd ~l_log_idx ~l_decided_idx =
  if Ballot.(n >= t.dur.prom_rnd) then begin
    t.dur.prom_rnd <- n;
    if n.Ballot.pid <> t.id then t.role <- Follower;
    (* Send the entries the leader might be missing (Figure 3b (3)). A
       compacted log can only serve entries from its trim point; when the
       leader needs entries below it (its log ends, or its decided prefix
       stops, under our floor) the suffix alone would leave a gap — and the
       leader's own entries below our floor may be stale non-chosen
       proposals — so the promise also carries our snapshot and the leader
       installs it under the suffix. *)
    let floor = Log.first_idx t.dur.log in
    let promise ~base =
      let from = max base floor in
      let snapshot =
        if from > base then Some (floor, snapshot_bytes t) else None
      in
      (from, Log.suffix t.dur.log ~from, snapshot)
    in
    let suffix_from, suffix, snapshot =
      if Ballot.(t.dur.acc_rnd > l_acc_rnd) then promise ~base:l_decided_idx
      else if
        Ballot.equal t.dur.acc_rnd l_acc_rnd
        && Log.length t.dur.log > l_log_idx
      then promise ~base:l_log_idx
      else (Log.length t.dur.log, [], None)
    in
    if Obs.Trace.on () then
      Obs.Trace.emit ~node:t.id
        (Obs.Event.Promise_sent
           {
             b = trace_ballot n;
             log_idx = Log.length t.dur.log;
             decided_idx = t.dur.decided_idx;
           });
    t.send ~dst:src
      (Promise
         {
           n;
           acc_rnd = t.dur.acc_rnd;
           log_idx = Log.length t.dur.log;
           decided_idx = t.dur.decided_idx;
           suffix_from;
           suffix;
           snapshot;
         })
  end

let on_promise t ~src ~n ~(info : promise_info) =
  if Ballot.equal n t.dur.prom_rnd then
    match t.role with
    | Leader_prepare ->
        Hashtbl.replace t.promises src info;
        if Hashtbl.length t.promises + 1 >= t.quorum then complete_prepare t
    | Leader_accept ->
        (* Straggler outside the Prepare-phase majority, or a peer
           re-promising after a session drop: synchronise it now. *)
        Hashtbl.replace t.promises src info;
        accept_sync_follower t ~dst:src ~info ~max_acc_rnd:t.dur.acc_rnd
    | Follower -> ()

let on_accept_sync t ~n ~sync_idx ~suffix ~l_decided_idx ~snapshot =
  if Ballot.equal n t.dur.prom_rnd then begin
    match snapshot with
    | Some (idx, payload) ->
        (* Install the state snapshot (the log restarts at [idx]; the
           application restores its state machine from the payload) —
           unless it is stale, in which case only the suffix is adopted. *)
        t.dur.acc_rnd <- n;
        adopt_snapshot_suffix t ~idx ~payload ~suffix;
        if Obs.Trace.on () then
          Obs.Trace.emit ~node:t.id
            (Obs.Event.Accepted_idx
               { b = trace_ballot n; log_idx = Log.length t.dur.log });
        t.acked_idx <- Log.length t.dur.log;
        t.ack_pending <- false;
        t.send ~dst:n.Ballot.pid (Accepted { n; log_idx = Log.length t.dur.log });
        advance_decided t l_decided_idx
    | None ->
        if sync_idx <= Log.length t.dur.log && sync_idx >= Log.first_idx t.dur.log
        then begin
          t.dur.acc_rnd <- n;
          sync_log t ~at:sync_idx suffix;
          if Obs.Trace.on () then
            Obs.Trace.emit ~node:t.id
              (Obs.Event.Accepted_idx
                 { b = trace_ballot n; log_idx = Log.length t.dur.log });
          t.acked_idx <- Log.length t.dur.log;
          t.ack_pending <- false;
          t.send ~dst:n.Ballot.pid
            (Accepted { n; log_idx = Log.length t.dur.log });
          advance_decided t l_decided_idx
        end
  end

(* Accepts carry their starting log index: re-deliveries overlap and are
   deduplicated, and a batch that would create a gap (messages lost without a
   session drop observed yet) is ignored — the session-reset path resyncs. *)
let on_accept t ~n ~start_idx ~entries ~l_decided_idx =
  if
    Ballot.equal n t.dur.prom_rnd
    && Ballot.equal n t.dur.acc_rnd
    && role_is_follower t.role
    && start_idx <= Log.length t.dur.log
  then begin
    let already = Log.length t.dur.log - start_idx in
    let fresh = if already <= 0 then entries else List.filteri (fun i _ -> i >= already) entries in
    List.iter (append_entry t) fresh;
    let len = Log.length t.dur.log in
    if Obs.Trace.on () then
      Obs.Trace.emit ~node:t.id
        (Obs.Event.Accepted_idx { b = trace_ballot n; log_idx = len });
    (* Ack coalescing (adaptive policy): acknowledge at most once per
       [ack_every] appended entries; anything deferred is swept by the next
       tick's [flush]. The fixed policy acknowledges every batch. *)
    let b = t.batching in
    if
      (not b.Batching.adaptive)
      || b.Batching.ack_every <= 1
      || len - t.acked_idx >= b.Batching.ack_every
    then begin
      t.acked_idx <- len;
      t.ack_pending <- false;
      t.send ~dst:n.Ballot.pid (Accepted { n; log_idx = len })
    end
    else t.ack_pending <- true;
    advance_decided t l_decided_idx
  end

let on_accepted t ~src ~n ~f_log_idx =
  if Ballot.equal n t.dur.prom_rnd && role_is_leader_accept t.role then begin
    let prev = Option.value (Hashtbl.find_opt t.acc_idx src) ~default:0 in
    Hashtbl.replace t.acc_idx src (max prev f_log_idx);
    try_decide t
  end

let on_decide_msg t ~n ~l_decided_idx =
  if Ballot.equal n t.dur.prom_rnd && Ballot.equal n t.dur.acc_rnd then
    advance_decided t l_decided_idx

let on_trim t ~n ~trim_idx =
  let trim_idx = trim_cap t ~upto:trim_idx in
  if
    Ballot.equal n t.dur.prom_rnd
    && trim_idx <= t.dur.decided_idx
    && trim_idx <= Log.length t.dur.log
  then begin
    let floor = Log.first_idx t.dur.log in
    if trim_idx > floor then begin
      advance_app t ~upto:trim_idx;
      Log.trim t.dur.log ~upto:trim_idx;
      trace_trim t ~upto:trim_idx ~entries:(trim_idx - floor)
    end
  end

(* Log compaction (§6 / the omnipaxos crate's [trim]): the leader may
   discard a decided prefix once every server has accepted it, and tells
   the followers to do the same. Returns [false] when some server has not
   confirmed the entries yet. *)
let request_trim t ~upto =
  let upto = trim_cap t ~upto in
  let all_peers_accepted =
    List.for_all
      (fun p ->
        match Hashtbl.find_opt t.acc_idx p with
        | Some acc -> acc >= upto
        | None -> false)
      t.peers
  in
  if role_is_leader_accept t.role && upto <= t.dur.decided_idx
     && all_peers_accepted
  then begin
    let floor = Log.first_idx t.dur.log in
    if upto > floor then begin
      advance_app t ~upto;
      Log.trim t.dur.log ~upto;
      trace_trim t ~upto ~entries:(upto - floor)
    end;
    let m = Trim { n = t.dur.prom_rnd; trim_idx = upto } in
    List.iter (fun p -> t.send ~dst:p m) t.peers;
    true
  end
  else false

let resend_prepare_to t ~dst =
  (* The peer lost messages (session drop or recovery): treat it as
     unpromised and restart its synchronisation from a fresh Prepare. *)
  Hashtbl.remove t.synced dst;
  Hashtbl.remove t.acc_idx dst;
  Hashtbl.remove t.sent_idx dst;
  Hashtbl.remove t.promises dst;
  if Obs.Trace.on () then
    Obs.Trace.emit ~node:t.id
      (Obs.Event.Prepare_round
         {
           b = trace_ballot t.dur.prom_rnd;
           log_idx = Log.length t.dur.log;
           decided_idx = t.dur.decided_idx;
         });
  t.send ~dst
    (Prepare
       {
         n = t.dur.prom_rnd;
         acc_rnd = t.dur.acc_rnd;
         log_idx = Log.length t.dur.log;
         decided_idx = t.dur.decided_idx;
       })

let handle t ~src msg =
  match msg with
  | Prepare { n; acc_rnd; log_idx; decided_idx } ->
      on_prepare t ~src ~n ~l_acc_rnd:acc_rnd ~l_log_idx:log_idx
        ~l_decided_idx:decided_idx
  | Promise { n; acc_rnd; log_idx; decided_idx; suffix_from; suffix; snapshot }
    ->
      on_promise t ~src ~n
        ~info:
          {
            p_acc_rnd = acc_rnd;
            p_log_idx = log_idx;
            p_decided_idx = decided_idx;
            p_suffix_from = suffix_from;
            p_suffix = suffix;
            p_snapshot = snapshot;
          }
  | Accept_sync { n; sync_idx; suffix; decided_idx; snapshot } ->
      on_accept_sync t ~n ~sync_idx ~suffix ~l_decided_idx:decided_idx
        ~snapshot
  | Accept { n; start_idx; entries; decided_idx } ->
      on_accept t ~n ~start_idx ~entries ~l_decided_idx:decided_idx
  | Accepted { n; log_idx } -> on_accepted t ~src ~n ~f_log_idx:log_idx
  | Decide { n; decided_idx } -> on_decide_msg t ~n ~l_decided_idx:decided_idx
  | Trim { n; trim_idx } -> on_trim t ~n ~trim_idx
  | Prepare_req -> if is_leader t then resend_prepare_to t ~dst:src

(* One flush: per promised follower, send the entries proposed since its
   last batch, capped per Accept ([batch_cap] under the adaptive policy,
   [max_batch] under the fixed one) — a backlog larger than one cap streams
   as a pipeline of batches across successive flushes. The adaptive cap is
   AIMD: it doubles towards [max_batch] while flushes run at capacity and
   halves towards [min_batch] once the backlog drains, so frame sizes track
   the offered load. *)
let do_flush t ~trigger =
  let b = t.batching in
  let cap = if b.Batching.adaptive then t.batch_cap else b.Batching.max_batch in
  let len = Log.length t.dur.log in
  let max_lag = ref 0 in
  let sent_entries = ref 0 in
  let sent_followers = ref 0 in
  let floor = Log.first_idx t.dur.log in
  (* Followers at the same position get the same entry list: it is built
     once per distinct [(from, count)] and shared, which is safe because
     lists are immutable. *)
  let built = ref [] in
  let entries_for from count =
    let rec find = function
      | (f, c, entries) :: _ when f = from && c = count -> entries
      | _ :: rest -> find rest
      | [] ->
          let entries = Log.sub t.dur.log ~pos:from ~len:count in
          built := (from, count, entries) :: !built;
          entries
    in
    find !built
  in
  Replog.Det.iter_sorted ~compare_key:Int.compare
    (fun f () ->
      let from = Option.value (Hashtbl.find_opt t.sent_idx f) ~default:len in
      if from < floor then begin
        (* The follower's unsent backlog starts below the trim point (it
           lagged past a compaction): the entries are gone, so repair with
           a snapshot install plus the remaining tail instead. *)
        let suffix = Log.suffix t.dur.log ~from:floor in
        if Obs.Trace.on () then
          Obs.Trace.emit ~node:t.id
            (Obs.Event.Accept_sent
               {
                 b = trace_ballot t.dur.prom_rnd;
                 start_idx = floor;
                 count = List.length suffix;
               });
        t.send ~dst:f
          (Accept_sync
             {
               n = t.dur.prom_rnd;
               sync_idx = floor;
               suffix;
               decided_idx = t.dur.decided_idx;
               snapshot = Some (floor, snapshot_bytes t);
             });
        Hashtbl.replace t.sent_idx f len
      end
      else if from < len then begin
        max_lag := max !max_lag (len - from);
        let count = min cap (len - from) in
        sent_entries := !sent_entries + count;
        incr sent_followers;
        if Obs.Trace.on () then
          Obs.Trace.emit ~node:t.id
            (Obs.Event.Accept_sent
               {
                 b = trace_ballot t.dur.prom_rnd;
                 start_idx = from;
                 count;
               });
        t.send ~dst:f
          (Accept
             {
               n = t.dur.prom_rnd;
               start_idx = from;
               entries = entries_for from count;
               decided_idx = t.dur.decided_idx;
             });
        Hashtbl.replace t.sent_idx f (from + count)
      end)
    t.synced;
  if !sent_followers > 0 && Obs.Trace.on () then
    Obs.Trace.emit ~node:t.id
      (Obs.Event.Batch_flush
         {
           entries = !sent_entries;
           followers = !sent_followers;
           cap;
           trigger;
         });
  if b.Batching.adaptive then begin
    let before = t.batch_cap in
    if !max_lag >= t.batch_cap then
      t.batch_cap <- min b.Batching.max_batch (2 * t.batch_cap)
    else if 2 * !max_lag <= t.batch_cap then
      t.batch_cap <- max b.Batching.min_batch (t.batch_cap / 2);
    if t.batch_cap <> before && Obs.Trace.on () then
      Obs.Trace.emit ~node:t.id
        (Obs.Event.Cap_change { cap_from = before; cap_to = t.batch_cap })
  end;
  t.unflushed <- 0;
  t.ticks_since_flush <- 0;
  if t.quorum = 1 then try_decide t

(* Follower half of ack coalescing: a deferred Accepted is swept out on the
   next tick, bounding the extra decide latency by one tick period. *)
let flush_acks t =
  if t.ack_pending then begin
    t.ack_pending <- false;
    if
      role_is_follower t.role
      && Ballot.equal t.dur.prom_rnd t.dur.acc_rnd
      && t.dur.prom_rnd.Ballot.pid <> t.id
    then begin
      let len = Log.length t.dur.log in
      t.acked_idx <- len;
      t.send ~dst:t.dur.prom_rnd.Ballot.pid
        (Accepted { n = t.dur.prom_rnd; log_idx = len })
    end
  end

let propose t entry =
  match t.role with
  | Follower -> false
  | Leader_prepare ->
      if Option.is_some t.ss_idx then false
      else begin
        Queue.add entry t.buffer;
        true
      end
  | Leader_accept ->
      if Option.is_some t.ss_idx then false
      else begin
        append_entry t entry;
        trace_proposed t entry;
        t.unflushed <- t.unflushed + 1;
        (* Size trigger: under the adaptive policy a burst is flushed as
           soon as it fills the current batch cap, without waiting for the
           tick deadline. *)
        if t.batching.Batching.adaptive && t.unflushed >= t.batch_cap then
          do_flush t ~trigger:"size";
        true
      end

let flush t =
  if role_is_leader_accept t.role then begin
    t.ticks_since_flush <- t.ticks_since_flush + 1;
    if t.ticks_since_flush >= t.batching.Batching.deadline_ticks then
      do_flush t ~trigger:"deadline"
  end
  else flush_acks t

let recover t =
  t.role <- Follower;
  List.iter (fun peer -> t.send ~dst:peer Prepare_req) t.peers

let session_reset t ~peer =
  if is_leader t then resend_prepare_to t ~dst:peer
  else t.send ~dst:peer Prepare_req

let entries_size entries =
  List.fold_left (fun acc e -> acc + Entry.size e) 0 entries

let msg_size = function
  | Prepare _ -> 57
  | Promise { suffix; snapshot; _ } ->
      65 + entries_size suffix
      + (match snapshot with Some (_, p) -> 16 + String.length p | None -> 0)
  | Accept_sync { suffix; snapshot; _ } ->
      49 + entries_size suffix
      + (match snapshot with Some (_, p) -> 16 + String.length p | None -> 0)
  | Accept { entries; _ } -> 41 + entries_size entries
  | Accepted _ -> 33
  | Decide _ -> 33
  | Trim _ -> 33
  | Prepare_req -> 9
