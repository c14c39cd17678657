(* The open-loop load generator and the commit observer, over one protocol
   driven through [Rsm.Cluster.Make].

   Arrivals are a seeded Poisson stream fixed before the run. Each command
   is submitted at its due instant with [propose_at] to the server a
   majority of live servers name as leader; refused commands wait in a
   backlog with their latency still counting. When the majority-named
   leader changes, in-flight commands are resubmitted to it at once under
   the same ids; a retry timer only backs this up. A command commits at the
   first simulated instant any server lists its id in [decided_ids], which
   the observer reads after every [handle], [tick], [session_reset] and
   [restart] of every server. *)

module Net = Simnet.Net

type faults =
  | Steady
  | Scenario_cycle of { partition_ms : float; heal_ms : float }
      (** quorum-loss, constrained and chain partitions in turn, each
          healed after [partition_ms] and followed by [heal_ms] of full
          connectivity, for as long as the window lasts *)
  | Crash_follower of { node : int; at_ms : float; down_ms : float }
      (** crash [node] [at_ms] into the window and recover it [down_ms]
          later *)

type spec = {
  cluster : Rsm.Cluster.config;
  wan : bool;  (** {!Rsm.Experiments.apply_wan_latencies} *)
  rate : float;  (** arrivals per simulated ms *)
  kv : bool;  (** KV puts and gets instead of no-ops *)
  warmup_ms : float;
  window_ms : float;
  drain_ms : float;  (** longest wait for the window's last commands *)
  retry_ms : float;  (** fallback resubmission of unanswered commands *)
  faults : faults;
  trace_file : string option;  (** record a binary trace of the run *)
}

type input = { offsets : float array; keys : int array; puts : Bytes.t }
(** Due instants relative to the end of the election, and the KV operation
    of each command. *)

let kv_keys = 1000

let make_input ~seed ~rate ~horizon_ms =
  let rng = Random.State.make [| seed; 0x10ad |] in
  let acc = ref [] and t = ref 0.0 in
  let continue = ref true in
  while !continue do
    t := !t -. (log (1.0 -. Random.State.float rng 1.0) /. rate);
    if !t < horizon_ms then acc := !t :: !acc else continue := false
  done;
  let offsets = Array.of_list (List.rev !acc) in
  let n = Array.length offsets in
  let keys = Array.init n (fun _ -> Random.State.int rng kv_keys) in
  let puts = Bytes.init n (fun _ -> if Random.State.bool rng then 'p' else 'g') in
  { offsets; keys; puts }

let key_names = Array.init kv_keys (Printf.sprintf "key%04d")

let values =
  Array.init 16 (fun i -> String.make 100 (Char.chr (Char.code 'a' + i)))

type raw = {
  key : string;  (** the protocol's metric prefix *)
  lat : float array;  (** due -> commit of each window command; [infinity]
                          if it never committed *)
  downtime_ms : float;
  sim : (string * float) list;
      (** simulated counts: a pure function of the seed *)
  traced : (string * float) list;
      (** counts only the traced run's wrapped [send] sees *)
  setup_ns : int;
  window_ns : int;  (** host time of the window and the drain *)
  gc : (string * float) list;
  spans : Span.totals;
  errors : string list;
}

module Make (P : Probe.S) = struct
  type tcount = {
    mutable attempts : int;
    mutable batches : int;
    mutable entries : int;
    mutable ble : int;
    mutable sync : int;
    mutable sync_bytes : int;
  }

  let tc =
    { attempts = 0; batches = 0; entries = 0; ble = 0; sync = 0; sync_bytes = 0 }

  let tc_list () =
    let f = float_of_int in
    [
      ("send_attempts", f tc.attempts);
      ("batches", f tc.batches);
      ("batch_entries", f tc.entries);
      ("ble_sends", f tc.ble);
      ("sync_msgs", f tc.sync);
      ("sync_bytes", f tc.sync_bytes);
    ]

  (* P with a span around every call into the adapter and a wrapped [send]
     that counts messages by constructor. *)
  module Timed = struct
    include P

    let create ?batching ?compaction ~id ~peers ~election_ticks ~rand ~send
        () =
      let send ~dst m =
        Span.enter Span.gen;
        tc.attempts <- tc.attempts + 1;
        let b = P.batch_entries m in
        if b >= 0 then begin
          tc.batches <- tc.batches + 1;
          tc.entries <- tc.entries + b
        end;
        if P.is_ble m then tc.ble <- tc.ble + 1;
        if P.is_sync m then begin
          tc.sync <- tc.sync + 1;
          tc.sync_bytes <- tc.sync_bytes + P.msg_size m
        end;
        Span.leave ();
        Span.enter Span.send;
        send ~dst m;
        Span.leave ()
      in
      P.create ?batching ?compaction ~id ~peers ~election_ticks ~rand ~send ()

    let handle t ~src m =
      Span.enter (if P.is_ble m then Span.handle_ble else Span.handle);
      P.handle t ~src m;
      Span.leave ()

    let tick t =
      Span.enter Span.tick;
      P.tick t;
      Span.leave ()

    let propose t cmd =
      Span.enter Span.propose;
      let ok = P.propose t cmd in
      Span.leave ();
      ok

    let session_reset t ~peer =
      Span.enter Span.adapter_other;
      P.session_reset t ~peer;
      Span.leave ()

    let restart t =
      Span.enter Span.adapter_other;
      P.restart t;
      Span.leave ()
  end

  module Run (Q : Rsm.Protocol.PROTOCOL) = struct
    (* Q with the observer's hook after every call that can decide or change
       a server's view of the leader. *)
    module O = struct
      type t = { id : int; q : Q.t }
      type msg = Q.msg

      let name = Q.name
      let hook : (int -> unit) ref = ref ignore

      let create ?batching ?compaction ~id ~peers ~election_ticks ~rand ~send
          () =
        {
          id;
          q =
            Q.create ?batching ?compaction ~id ~peers ~election_ticks ~rand
              ~send ();
        }

      let handle t ~src m =
        Q.handle t.q ~src m;
        !hook t.id

      let tick t =
        Q.tick t.q;
        !hook t.id

      let session_reset t ~peer =
        Q.session_reset t.q ~peer;
        !hook t.id

      let restart t =
        Q.restart t.q;
        !hook t.id

      let propose t cmd = Q.propose t.q cmd
      let is_leader t = Q.is_leader t.q
      let leader_pid t = Q.leader_pid t.q
      let decided_count t = Q.decided_count t.q
      let decided_ids t ~from = Q.decided_ids t.q ~from
      let decided_index t = Q.decided_index t.q
      let last_install t = Q.last_install t.q
      let msg_size = Q.msg_size
    end

    module C = Rsm.Cluster.Make (O)

    type gen = {
      mutable target : int;  (** majority-named live leader, or -1 *)
      mutable ready : bool;  (** the target reports itself leader *)
      mutable last_leader : int;
      mutable frontier : int;
      mutable next : int;
      mutable ncommit : int;
      mutable window_committed : int;
      mutable proposals : int;
      mutable rejected : int;
      mutable resubmits : int;
      mutable backlog_max : int;
      mutable gen_events : int;
      mutable leader_changes : int;
      mutable leaderless_acc : float;
      mutable leaderless_since : float;
      mutable in_window : bool;
      mutable running : bool;
      mutable lag_max : int;
      mutable catching : int;
      mutable catch_target : int;
      mutable catch_t0 : float;
      mutable catch_b0 : int;
      mutable catchup_ms : float;
      mutable catchup_bytes : int;
    }

    let run (s : spec) (inp : input) ~seed ~traced =
      let cfg = { s.cluster with Rsm.Cluster.seed } in
      let n = cfg.Rsm.Cluster.n in
      let total = Array.length inp.offsets in
      let first_window =
        let i = ref 0 in
        while !i < total && inp.offsets.(!i) < s.warmup_ms do incr i done;
        !i
      in
      let due = Array.make total 0.0 in
      let commit = Array.make total (-1.0) in
      let sub_t = Array.make total 0.0 in
      let order = Array.make total 0 in
      let inflight = Iq.create () and backlog = Iq.create () in
      let seen = Array.make n 0 in
      let lpid = Array.make n (-1) and ilead = Array.make n false in
      let g =
        {
          target = -1;
          ready = false;
          last_leader = -1;
          frontier = 0;
          next = 0;
          ncommit = 0;
          window_committed = 0;
          proposals = 0;
          rejected = 0;
          resubmits = 0;
          backlog_max = 0;
          gen_events = 0;
          leader_changes = 0;
          leaderless_acc = 0.0;
          leaderless_since = 0.0;
          in_window = false;
          running = true;
          lag_max = 0;
          catching = -1;
          catch_target = 0;
          catch_t0 = 0.0;
          catch_b0 = 0;
          catchup_ms = 0.0;
          catchup_bytes = 0;
        }
      in
      tc.attempts <- 0;
      tc.batches <- 0;
      tc.entries <- 0;
      tc.ble <- 0;
      tc.sync <- 0;
      tc.sync_bytes <- 0;
      Gc.full_major ();
      let setup_start = Span.now_ns () in
      let c = C.create cfg in
      let net = C.net c in
      if s.wan then Rsm.Experiments.apply_wan_latencies net ~n;
      let node i = (C.node c i).O.q in
      let now () = Net.now net in
      let trace =
        Option.map
          (fun file ->
            let oc = open_out_bin file in
            let w =
              Obs.Tracebin.writer ~meta:(Obs.Trace.run_meta ())
                (output_string oc)
            in
            let sub =
              Obs.Trace.subscribe (fun ev ->
                  Span.enter Span.sink;
                  Obs.Tracebin.write w ev;
                  Span.leave ())
            in
            Obs.Trace.set_enabled true;
            (file, oc, w, sub))
          s.trace_file
      in
      let cmd id =
        if s.kv then
          let k = key_names.(inp.keys.(id)) in
          Replog.Command.make ~id
            (if Bytes.get inp.puts id = 'p' then
               Replog.Command.Kv_put (k, values.(id land 15))
             else Replog.Command.Kv_get k)
        else Replog.Command.noop id
      in
      let propose id =
        Span.enter Span.cluster;
        let ok = C.propose_at c ~node:g.target (cmd id) in
        Span.leave ();
        g.proposals <- g.proposals + 1;
        if ok then sub_t.(id) <- now () else g.rejected <- g.rejected + 1;
        ok
      in
      let to_backlog id =
        Iq.push backlog id;
        if Iq.length backlog > g.backlog_max then
          g.backlog_max <- Iq.length backlog
      in
      let flush_backlog () =
        let continue = ref true in
        while !continue && not (Iq.is_empty backlog) do
          let id = Iq.peek backlog in
          if commit.(id) >= 0.0 then ignore (Iq.pop backlog)
          else if g.target >= 0 && propose id then begin
            ignore (Iq.pop backlog);
            Iq.push inflight id
          end
          else continue := false
        done
      in
      (* Resubmit in-flight commands last submitted at or before [before]. *)
      let resubmit ~before =
        for _ = 1 to Iq.length inflight do
          let id = Iq.pop inflight in
          if commit.(id) < 0.0 then
            if sub_t.(id) > before then Iq.push inflight id
            else begin
              g.resubmits <- g.resubmits + 1;
              if propose id then Iq.push inflight id else to_backlog id
            end
        done
      in
      let retarget () =
        let live = ref 0 in
        for i = 0 to n - 1 do
          if Net.is_up net i then incr live
        done;
        let t = ref (-1) in
        for i = 0 to n - 1 do
          let p = lpid.(i) in
          if !t < 0 && p >= 0 && Net.is_up net p then begin
            let votes = ref 0 in
            for j = 0 to n - 1 do
              if Net.is_up net j && lpid.(j) = p then incr votes
            done;
            if 2 * !votes > !live then t := p
          end
        done;
        let t = !t in
        if t <> g.target then begin
          let time = now () in
          if g.target < 0 then
            g.leaderless_acc <- g.leaderless_acc +. (time -. g.leaderless_since);
          if t < 0 then g.leaderless_since <- time
          else if t <> g.last_leader then begin
            if g.last_leader >= 0 then g.leader_changes <- g.leader_changes + 1;
            g.last_leader <- t
          end;
          g.target <- t;
          g.ready <- t >= 0 && ilead.(t);
          if t >= 0 then begin
            resubmit ~before:infinity;
            flush_backlog ()
          end
        end
        else if t >= 0 then begin
          let was = g.ready in
          g.ready <- ilead.(t);
          if g.ready && not was then flush_backlog ()
        end
      in
      let note_commits q ~from =
        let time = now () in
        List.iter
          (fun id ->
            if id >= 0 && id < total && commit.(id) < 0.0 then begin
              commit.(id) <- time;
              order.(g.ncommit) <- id;
              g.ncommit <- g.ncommit + 1;
              if id >= first_window then
                g.window_committed <- g.window_committed + 1
            end)
          (Q.decided_ids q ~from);
        while (not (Iq.is_empty inflight)) && commit.(Iq.peek inflight) >= 0.0
        do
          ignore (Iq.pop inflight)
        done
      in
      let after i =
        let q = node i in
        let cnt = Q.decided_count q in
        if cnt > seen.(i) then begin
          (* Servers that never installed a snapshot hold prefixes of one
             sequence (checked after the run), so only positions past the
             frontier can hold new commits. *)
          if Option.is_some (Q.last_install q) then note_commits q ~from:seen.(i)
          else if cnt > g.frontier then begin
            note_commits q ~from:(max seen.(i) g.frontier);
            g.frontier <- cnt
          end;
          seen.(i) <- cnt
        end;
        let p = match Q.leader_pid q with Some p -> p | None -> -1 in
        let l = Q.is_leader q in
        if p <> lpid.(i) || l <> ilead.(i) then begin
          lpid.(i) <- p;
          ilead.(i) <- l;
          retarget ()
        end;
        if g.catching = i && Q.decided_index q >= g.catch_target then begin
          g.catchup_ms <- now () -. g.catch_t0;
          g.catchup_bytes <- Net.bytes_delivered_at net i - g.catch_b0;
          g.catching <- -1
        end;
        if g.in_window && g.target >= 0 && i <> g.target && g.catching <> i
        then begin
          let lag = Q.decided_index (node g.target) - Q.decided_index q in
          if lag > g.lag_max then g.lag_max <- lag
        end
      in
      (O.hook :=
         if traced then (fun i ->
           Span.enter Span.gen;
           after i;
           Span.leave ())
         else after);
      let rec arrive () =
        Span.enter Span.gen;
        g.gen_events <- g.gen_events + 1;
        let id = g.next in
        g.next <- id + 1;
        if id + 1 < total then
          Net.schedule net ~delay:(due.(id + 1) -. now ()) arrive;
        if Iq.is_empty backlog && g.target >= 0 && propose id then
          Iq.push inflight id
        else to_backlog id;
        Span.leave ()
      in
      let rec retry () =
        Span.enter Span.gen;
        g.gen_events <- g.gen_events + 1;
        if g.target >= 0 then begin
          resubmit ~before:(now () -. s.retry_ms);
          flush_backlog ()
        end;
        Span.leave ();
        if g.running then Net.schedule net ~delay:s.retry_ms retry
      in
      let at time f =
        Net.schedule net ~delay:(time -. now ()) (fun () ->
            Span.enter Span.gen;
            g.gen_events <- g.gen_events + 1;
            f ();
            Span.leave ())
      in
      (* Election: run until a majority names a leader that reports itself
         leader. *)
      let limit = 200.0 *. cfg.Rsm.Cluster.election_timeout_ms in
      while (not g.ready) && now () < limit do
        C.run_ms c cfg.Rsm.Cluster.tick_ms
      done;
      if not g.ready then failwith (P.key ^ ": no leader elected");
      let start = now () in
      Array.iteri (fun i o -> due.(i) <- start +. o) inp.offsets;
      if total > 0 then Net.schedule net ~delay:inp.offsets.(0) arrive;
      Net.schedule net ~delay:s.retry_ms retry;
      let w0 = start +. s.warmup_ms in
      let w1 = w0 +. s.window_ms in
      Net.run_until net w0;
      (* Faults, placed relative to the window. *)
      let rng = Random.State.make [| seed; 0xfa17 |] in
      let leader () = if g.target >= 0 then g.target else 0 in
      let other l =
        let o = Random.State.int rng (n - 1) in
        if o >= l then o + 1 else o
      in
      (match s.faults with
      | Steady -> ()
      | Crash_follower { node = f; at_ms; down_ms } ->
          at (w0 +. at_ms) (fun () ->
              C.crash c f;
              retarget ());
          at (w0 +. at_ms +. down_ms) (fun () ->
              g.catch_target <- Q.decided_index (node (leader ()));
              g.catch_t0 <- now ();
              g.catch_b0 <- Net.bytes_delivered_at net f;
              g.catching <- f;
              C.recover c f)
      | Scenario_cycle { partition_ms; heal_ms } ->
          let pre = cfg.Rsm.Cluster.election_timeout_ms /. 2.0 in
          let episode = pre +. partition_ms +. heal_ms in
          let k = ref 0 and t = ref w0 in
          while !t +. episode <= w1 do
            let t0 = !t in
            (match !k mod 3 with
            | 0 ->
                at t0 (fun () ->
                    Rsm.Scenario.quorum_loss net ~hub:(other (leader ())))
            | 1 ->
                let picked = ref (0, 0) in
                at t0 (fun () ->
                    let l = leader () in
                    let qc = other l in
                    picked := (qc, l);
                    Net.set_link net qc l false);
                at (t0 +. pre) (fun () ->
                    let qc, l = !picked in
                    Rsm.Scenario.constrained net ~qc ~leader:l)
            | _ ->
                at t0 (fun () ->
                    let l = leader () in
                    let rest = List.filter (( <> ) l) (List.init n Fun.id) in
                    let tagged =
                      List.map (fun i -> (Random.State.bits rng, i)) rest
                    in
                    let shuffled = List.map snd (List.sort compare tagged) in
                    Rsm.Scenario.chain_of net ~order:(l :: shuffled)));
            at (t0 +. pre +. partition_ms) (fun () -> Rsm.Scenario.heal net);
            incr k;
            t := t0 +. episode
          done);
      (* The window. *)
      let bytes_of () = Array.init n (Net.bytes_sent net) in
      let sum a = Array.fold_left ( + ) 0 a in
      let msgs_of () = sum (Array.init n (Net.messages_sent net)) in
      let dispatched label =
        List.assoc label (Net.dispatch_counts net)
      in
      let trace_counts () =
        match trace with
        | Some (_, _, w, _) ->
            (Obs.Tracebin.written_events w, Obs.Tracebin.written_bytes w)
        | None -> (0, 0)
      in
      let leaderless () =
        g.leaderless_acc
        +. if g.target < 0 then now () -. g.leaderless_since else 0.0
      in
      let hs0 = Net.heap_stats net in
      let deliver0 = dispatched "deliver" and timer0 = dispatched "timer" in
      let egress0 = dispatched "egress_step" in
      let bytes0 = bytes_of () and msgs0 = msgs_of () in
      let delivered0 = Net.messages_delivered net in
      let inflight0 = Net.deliver_in_flight net in
      let ev0, tb0 = trace_counts () in
      let gen0 = g.gen_events and prop0 = g.proposals and rej0 = g.rejected in
      let res0 = g.resubmits and lc0 = g.leader_changes in
      let ll0 = leaderless () in
      let installs_of () =
        let k = ref 0 in
        for i = 0 to n - 1 do
          match Q.last_install (node i) with
          | Some inst -> k := !k + inst.Rsm.Protocol.inst_seq
          | None -> ()
        done;
        !k
      in
      let inst0 = installs_of () in
      let tc0 = tc_list () in
      let gc0 = Gc.quick_stat () in
      g.in_window <- true;
      Span.reset ();
      Span.on := traced;
      let window_start = Span.now_ns () in
      let setup_ns = window_start - setup_start in
      Net.run_until net w1;
      let window_total = total - first_window in
      while
        g.window_committed < window_total && now () < w1 +. s.drain_ms
      do
        C.run_ms c cfg.Rsm.Cluster.tick_ms
      done;
      let window_ns = Span.now_ns () - window_start in
      let spans = if traced then Span.snapshot () else Span.zero () in
      Span.on := false;
      let gc1 = Gc.quick_stat () in
      g.in_window <- false;
      g.running <- false;
      let horizon = now () in
      let sim_ms = horizon -. w0 in
      let hs1 = Net.heap_stats net in
      let bytes1 = bytes_of () in
      let ev1, tb1 = trace_counts () in
      let gen_events = g.gen_events - gen0 in
      let f = float_of_int in
      let leader_bytes =
        Array.fold_left max 0 (Array.mapi (fun i b -> b - bytes0.(i)) bytes1)
      in
      let egress_hw =
        Array.fold_left max 0 (Array.init n (Net.egress_queue_high_water net))
      in
      let sim_counts =
        [
          ("due", f window_total);
          ("committed", f g.window_committed);
          ("sim_ms", sim_ms);
          ("events", f (hs1.Net.hs_pops - hs0.Net.hs_pops - gen_events));
          ("deliver", f (dispatched "deliver" - deliver0));
          ("timer", f (dispatched "timer" - timer0 - gen_events));
          ("egress_step", f (dispatched "egress_step" - egress0));
          ("msgs", f (msgs_of () - msgs0));
          ("wire_bytes", f (sum bytes1 - sum bytes0));
          ( "undelivered",
            f
              (msgs_of () - msgs0
              - (Net.messages_delivered net - delivered0)
              - (Net.deliver_in_flight net - inflight0)) );
          ("leader_bytes", f leader_bytes);
          ("heap_hw", f hs1.Net.hs_high_water);
          ("egress_hw", f egress_hw);
          ("proposals", f (g.proposals - prop0));
          ("rejected", f (g.rejected - rej0));
          ("leader_changes", f (g.leader_changes - lc0));
          ("leaderless_ms", leaderless () -. ll0);
          ("resubmits", f (g.resubmits - res0));
          ("backlog_max", f g.backlog_max);
          ("gen_events", f gen_events);
          ("installs", f (installs_of () - inst0));
          ("catchup_ms", g.catchup_ms);
          ("catchup_bytes", f g.catchup_bytes);
          ("follower_lag_max", f g.lag_max);
          ("trace_events", f (ev1 - ev0));
          ("trace_bytes", f (tb1 - tb0));
        ]
      in
      let traced_counts =
        List.map2 (fun (k, a) (_, b) -> (k, a -. b)) (tc_list ()) tc0
      in
      let gc =
        [
          ( "alloc_words",
            gc1.Gc.minor_words -. gc0.Gc.minor_words
            +. (gc1.Gc.major_words -. gc0.Gc.major_words)
            -. (gc1.Gc.promoted_words -. gc0.Gc.promoted_words) );
          ("promoted_words", gc1.Gc.promoted_words -. gc0.Gc.promoted_words);
          ( "minor_collections",
            f (gc1.Gc.minor_collections - gc0.Gc.minor_collections) );
          ( "major_collections",
            f (gc1.Gc.major_collections - gc0.Gc.major_collections) );
        ]
      in
      (* Everything below is outside the measured window. The tracer and
         the profiler hold the simulated clock, and through it this
         cluster: release it so that repetitions do not pile up. *)
      O.hook := ignore;
      Obs.Trace.set_clock (fun () -> 0.0);
      Obs.Profile.set_clock (fun () -> 0.0);
      let errors = ref [] in
      let fail e = errors := e :: !errors in
      (match trace with
      | None -> ()
      | Some (file, oc, w, sub) ->
          Obs.Trace.unsubscribe sub;
          Obs.Trace.set_enabled false;
          Obs.Tracebin.flush w;
          close_out oc;
          let ic = open_in_bin file in
          let decoded =
            Obs.Tracebin.fold (Obs.Tracebin.of_channel ic) ~init:0
              ~f:(fun k _ -> k + 1)
          in
          close_in ic;
          Sys.remove file;
          (match decoded with
          | Ok k when k = Obs.Tracebin.written_events w -> ()
          | Ok k ->
              fail
                (Printf.sprintf "trace decodes to %d events, %d written" k
                   (Obs.Tracebin.written_events w))
          | Error e -> fail ("trace does not decode: " ^ e)));
      let seqs =
        Array.init n (fun i -> Array.of_list (Q.decided_ids (node i) ~from:0))
      in
      let installs =
        Array.init n (fun i ->
            match Q.last_install (node i) with
            | None -> None
            | Some inst -> (
                match Check.install_of inst with
                | Ok i -> Some i
                | Error e ->
                    fail ("undecodable snapshot install: " ^ e);
                    None))
      in
      let dups =
        match Check.agreement ~seqs ~installs with
        | Error e ->
            fail e;
            0
        | Ok reference -> (
            match
              Check.committed_in ~reference
                ~committed:(fun id -> commit.(id) >= 0.0)
                ~ids:total
            with
            | Ok d -> d
            | Error e ->
                fail e;
                0)
      in
      let lat =
        Array.init window_total (fun k ->
            let id = first_window + k in
            if commit.(id) >= 0.0 then commit.(id) -. due.(id) else infinity)
      in
      let commits = Array.init g.ncommit (fun k -> commit.(order.(k))) in
      let pending_due =
        Array.init g.ncommit (fun k ->
            let id = order.(k) in
            if id >= first_window then due.(id) else infinity)
      in
      let uncommitted_due = ref infinity in
      for id = total - 1 downto first_window do
        if commit.(id) < 0.0 then uncommitted_due := due.(id)
      done;
      let downtime_ms =
        Stats.downtime ~commits ~pending_due ~uncommitted_due:!uncommitted_due
          ~from:w0 ~horizon
      in
      {
        key = P.key;
        lat;
        downtime_ms;
        sim = sim_counts @ [ ("dup_decides", f dups) ];
        traced = (if traced then traced_counts else []);
        setup_ns;
        window_ns;
        gc;
        spans;
        errors = List.rev !errors;
      }
  end

  module Plain = Run (P)
  module Traced = Run (Timed)

  let run spec input ~seed ~traced =
    if traced then Traced.run spec input ~seed ~traced
    else Plain.run spec input ~seed ~traced
end
