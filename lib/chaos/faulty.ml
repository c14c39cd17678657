(* Test-only stale-read wrapper; see the .mli. *)

module Make (P : Rsm.Protocol.PROTOCOL) = struct
  type msg = P.msg

  (* The wrapper keeps its own decided-id stream: the inner protocol's
     decisions interleaved with the locally-served reads, in the order this
     server observed them. *)
  type t = {
    inner : P.t;
    cache : Rsm.Adapter.Decided_cache.t;
    mutable scanned : int;
  }

  let name = P.name ^ " (stale reads)"

  let create ?batching ?compaction ~id ~peers ~election_ticks ~rand ~send () =
    {
      inner =
        P.create ?batching ?compaction ~id ~peers ~election_ticks ~rand ~send
          ();
      cache = Rsm.Adapter.Decided_cache.create ();
      scanned = 0;
    }

  (* Pull any newly decided inner commands into our stream, so an injected
     read lands after everything this server has already applied. *)
  let sync t =
    let ids = P.decided_ids t.inner ~from:t.scanned in
    List.iter (Rsm.Adapter.Decided_cache.note t.cache) ids;
    t.scanned <- t.scanned + List.length ids

  let handle t ~src m = P.handle t.inner ~src m
  let tick t = P.tick t.inner
  let session_reset t ~peer = P.session_reset t.inner ~peer
  let restart t = P.restart t.inner

  let propose t (cmd : Replog.Command.t) =
    match cmd.Replog.Command.op with
    | Replog.Command.Kv_get _ when P.is_leader t.inner ->
        (* THE BUG: serve the read from the local prefix instead of
           replicating it. The command id never reaches consensus. *)
        sync t;
        Rsm.Adapter.Decided_cache.note t.cache cmd.Replog.Command.id;
        true
    (* Deliberately-buggy adapter: only leader-local reads are intercepted;
       every other operation takes the real consensus path. *)
    | _ [@lint.allow "D4"] -> P.propose t.inner cmd

  let is_leader t = P.is_leader t.inner
  let leader_pid t = P.leader_pid t.inner

  let decided_count t =
    sync t;
    Rsm.Adapter.Decided_cache.count t.cache

  let decided_ids t ~from =
    sync t;
    Rsm.Adapter.Decided_cache.ids_from t.cache ~from

  (* Forwarded as-is: [inst_cache_len] counts the inner stream, which can
     sit below this wrapper's id stream once reads were injected — fine for
     a deliberately-buggy adapter whose runs the checker must flag. *)
  let decided_index t = P.decided_index t.inner
  let last_install t = P.last_install t.inner

  let msg_size = P.msg_size
end
