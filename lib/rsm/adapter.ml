(* The adapter skeleton: everything the protocol adapters share, written
   once over a minimal per-protocol {!CORE}. The skeleton owns the
   decided-id cache and its scan cursor, the snapshot-install record, the
   knot that lets core callbacks reach the adapter, the profiler frames, the
   accessors, and the trace events a core does not emit itself. *)

(* Incrementally materialised list of decided command ids, fed from the
   cores' decide callbacks so queries are O(delta). *)
module Decided_cache = struct
  type t = { mutable ids : int array; mutable count : int }

  let create () = { ids = Array.make 64 0; count = 0 }

  let note t id =
    if t.count = Array.length t.ids then begin
      let bigger = Array.make (2 * t.count) 0 in
      Array.blit t.ids 0 bigger 0 t.count;
      t.ids <- bigger
    end;
    t.ids.(t.count) <- id;
    t.count <- t.count + 1

  let count t = t.count

  (* Consed straight from the array, back to front: no intermediate copy. *)
  let ids_from t ~from =
    let from = max 0 from in
    let rec collect i acc =
      if i < from then acc else collect (i - 1) (t.ids.(i) :: acc)
    in
    collect (t.count - 1) []
end

(* Client commands carry ids >= 0; protocol-internal entries (no-ops the
   protocols append themselves) are not client decisions. *)
let note_cmd cache (c : Replog.Command.t) =
  if c.Replog.Command.id >= 0 then Decided_cache.note cache c.Replog.Command.id

(* Omni-Paxos and VR: note the decided entries of a Sequence Paxos log in
   place, without materialising them as a list. *)
let scan_sequence_paxos sp cache ~from =
  let module Sp = Omnipaxos.Sequence_paxos in
  Replog.Log.iter_range (Sp.read_log sp) ~from ~upto:(Sp.decided_idx sp)
    (function
      | Omnipaxos.Entry.Cmd c -> note_cmd cache c
      | Omnipaxos.Entry.Stop_sign _ -> ())

(* The shared batching and compaction knobs in the terms of a core that
   batches and compacts on its own (Raft, Multi-Paxos), so Figure 7/8
   comparisons stay apples-to-apples: [max_batch] caps entries per
   replication message, an adaptive config turns on the eager size-triggered
   flush at the threshold Omni-Paxos starts from ([min_batch]), and the core
   compacts locally below its own commit/decide watermark at the same
   [snapshot_interval]/[retain]. *)
type local_knobs = {
  max_batch : int;
  eager_batch : int;
  snapshot_interval : int;
  retain : int;
}

let local_knobs ?(batching = Omnipaxos.Batching.fixed)
    ?(compaction = Omnipaxos.Compaction.disabled) () =
  let b = Omnipaxos.Batching.validated batching in
  let c = Omnipaxos.Compaction.validated compaction in
  {
    max_batch = b.Omnipaxos.Batching.max_batch;
    eager_batch =
      (if b.Omnipaxos.Batching.adaptive then b.Omnipaxos.Batching.min_batch
       else 0);
    snapshot_interval = c.Omnipaxos.Compaction.snapshot_interval;
    retain = c.Omnipaxos.Compaction.retain;
  }

(* The trace events a core leaves to its adapter. Terms and views map onto
   trace ballots as (term, 0, leader). *)
type 'core extra_trace =
  | No_extra  (* Omni-Paxos: BLE and Sequence Paxos emit everything *)
  | Leaders of ('core -> int)
      (* VR: the embedded Sequence Paxos traces the log; the adapter emits
         leader transitions, numbered by this term *)
  | Log_and_leaders of {
      term : 'core -> int;
      last_idx : 'core -> int;  (* log index of the latest append *)
      snapshot : 'core -> string;
    }
      (* Raft, Multi-Paxos: the adapter emits leader transitions and the
         propose, decide, compaction and install events Sequence Paxos emits
         internally, so span assembly and the invariants see every protocol *)

module type CORE = sig
  type t
  type msg

  val name : string

  val frame : string
  (** Profiler frames are [frame ^ "/handle"] and [frame ^ "/tick"]. *)

  val extra_trace : t extra_trace

  val create :
    ?batching:Omnipaxos.Batching.config ->
    ?compaction:Omnipaxos.Compaction.config ->
    id:int ->
    peers:int list ->
    election_ticks:int ->
    rand:Random.State.t ->
    send:(dst:int -> msg -> unit) ->
    on_decide:(int -> unit) ->
    on_install:(int -> string -> unit) ->
    on_compact:(upto:int -> entries:int -> unit) ->
    unit ->
    t
  (** [on_decide upto]: the decided/commit index reached [upto].
      [on_install idx payload]: a leader-shipped snapshot replaced the log
      below [idx]; fires before the decided index moves over it.
      [on_compact]: the core trimmed its own log (only cores that compact
      locally call it). *)

  val scan : t -> Decided_cache.t -> from:int -> upto:int -> unit
  (** Note the client commands decided at log positions [from, upto), where
      [upto] is the core's decided index just announced by [on_decide];
      called only with [from < upto]. *)

  val handle : t -> src:int -> msg -> unit
  val tick : t -> unit
  val session_reset : t -> peer:int -> unit
  val restart : t -> unit
  val propose : t -> Replog.Command.t -> bool
  val is_leader : t -> bool
  val leader_pid : t -> int option
  val decided_index : t -> int
  val msg_size : msg -> int
end

module Make (C : CORE) : sig
  include Protocol.PROTOCOL with type msg = C.msg

  val node : t -> C.t
  (** The wrapped protocol instance. *)
end = struct
  type msg = C.msg

  type t = {
    id : int;
    core : C.t;
    cache : Decided_cache.t;
    mutable scanned : int;  (* log index up to which decided ids are noted *)
    mutable install_seq : int;
    mutable last_install : Protocol.install option;
    mutable last_leader : (int * int) option;  (* (pid, term) last traced *)
  }

  let name = C.name

  let emit_leader t term =
    match C.leader_pid t.core with
    | None -> ()
    | Some pid ->
        let same =
          match t.last_leader with
          | Some (p, n) -> Int.equal p pid && Int.equal n term
          | None -> false
        in
        if not same then begin
          let first = Option.is_none t.last_leader in
          t.last_leader <- Some (pid, term);
          let b = { Obs.Event.n = term; prio = 0; pid } in
          Obs.Trace.emit ~node:t.id
            (if first then Obs.Event.Leader_elected b
             else Obs.Event.Leader_changed b)
        end

  let create ?batching ?compaction ~id ~peers ~election_ticks ~rand ~send () =
    let t_ref = ref None in
    let on_decide upto =
      match !t_ref with
      | Some t -> (
          (* [upto <= scanned] happens while a restarted core re-announces
             its decided index from storage: those ids are already noted. *)
          if upto > t.scanned then begin
            C.scan t.core t.cache ~from:t.scanned ~upto;
            t.scanned <- upto
          end;
          match C.extra_trace with
          | Log_and_leaders a when Obs.Trace.on () ->
              let pid = Option.value (C.leader_pid t.core) ~default:(-1) in
              let b = { Obs.Event.n = a.term t.core; prio = 0; pid } in
              Obs.Trace.emit ~node:id
                (Obs.Event.Decided { b; decided_idx = upto })
          | Log_and_leaders _ | Leaders _ | No_extra -> ())
      | None -> ()
    in
    (* Entries below [idx] can no longer be scanned: jump the cursor and
       record the install for checkers (the cache length marks where decided
       ids resume on top of the installed state). *)
    let on_install idx payload =
      match !t_ref with
      | Some t -> (
          t.scanned <- max t.scanned idx;
          t.install_seq <- t.install_seq + 1;
          t.last_install <-
            Some
              {
                Protocol.inst_seq = t.install_seq;
                inst_cache_len = Decided_cache.count t.cache;
                inst_payload = payload;
              };
          match C.extra_trace with
          | Log_and_leaders _ when Obs.Trace.on () ->
              Obs.Trace.emit ~node:id
                (Obs.Event.Snapshot_installed
                   { idx; bytes = String.length payload })
          | Log_and_leaders _ | Leaders _ | No_extra -> ())
      | None -> ()
    in
    let on_compact ~upto ~entries =
      match C.extra_trace with
      | Log_and_leaders a when Obs.Trace.on () ->
          (match !t_ref with
          | Some t ->
              Obs.Trace.emit ~node:id
                (Obs.Event.Snapshot_taken
                   { idx = upto; bytes = String.length (a.snapshot t.core) })
          | None -> ());
          Obs.Trace.emit ~node:id (Obs.Event.Log_trimmed { upto; entries })
      | Log_and_leaders _ | Leaders _ | No_extra -> ()
    in
    let core =
      C.create ?batching ?compaction ~id ~peers ~election_ticks ~rand ~send
        ~on_decide ~on_install ~on_compact ()
    in
    let t =
      {
        id;
        core;
        cache = Decided_cache.create ();
        scanned = 0;
        install_seq = 0;
        last_install = None;
        last_leader = None;
      }
    in
    t_ref := Some t;
    t

  let tick_raw t =
    C.tick t.core;
    if Obs.Trace.on () then
      match C.extra_trace with
      | Leaders term | Log_and_leaders { term; _ } ->
          emit_leader t (term t.core)
      | No_extra -> ()

  (* Profiler frames around the two dispatch entry points. The cold branch
     repeats the call instead of passing a closure to [wrap], so the
     profiler-off path allocates nothing (the overhead gate measures this). *)
  let handle_frame = C.frame ^ "/handle"
  let tick_frame = C.frame ^ "/tick"

  let handle t ~src msg =
    if Obs.Profile.on () then
      Obs.Profile.wrap handle_frame (fun () -> C.handle t.core ~src msg)
    else C.handle t.core ~src msg

  let tick t =
    if Obs.Profile.on () then Obs.Profile.wrap tick_frame (fun () -> tick_raw t)
    else tick_raw t

  let session_reset t ~peer = C.session_reset t.core ~peer
  let restart t = C.restart t.core

  (* The emit sits under [ok && Obs.Trace.on ()] so the propose path
     allocates nothing when tracing is off. *)
  let propose t cmd =
    let ok = C.propose t.core cmd in
    (match C.extra_trace with
    | Log_and_leaders a when ok && Obs.Trace.on () ->
        Obs.Trace.emit ~node:t.id
          (Obs.Event.Proposed
             { log_idx = a.last_idx t.core; cmd_id = cmd.Replog.Command.id })
    | Log_and_leaders _ | Leaders _ | No_extra -> ());
    ok

  let is_leader t = C.is_leader t.core
  let leader_pid t = C.leader_pid t.core
  let decided_count t = Decided_cache.count t.cache
  let decided_ids t ~from = Decided_cache.ids_from t.cache ~from
  let decided_index t = C.decided_index t.core
  let last_install t = t.last_install
  let msg_size = C.msg_size
  let node t = t.core
end
