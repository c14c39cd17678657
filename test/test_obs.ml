(* Unit tests for the observability layer (lib/obs): ring-buffer semantics,
   tracer sink fan-out and state restoration, histogram bucketing, and the
   trace-driven invariant checkers (including catching an injected
   two-leaders-for-one-ballot split-brain trace). *)

module Ring = Obs.Ring
module Trace = Obs.Trace
module Event = Obs.Event
module Metric = Obs.Metric
module Invariant = Obs.Invariant
module Causal = Obs.Causal
module Span = Obs.Span
module Health = Obs.Health

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let checkf = Alcotest.(check (float 1e-9))

(* ---------------- ring buffer ---------------- *)

let test_ring_basic () =
  let r = Ring.create ~capacity:4 in
  check_int "capacity" 4 (Ring.capacity r);
  check_int "empty" 0 (Ring.length r);
  check "empty to_list" true (Ring.to_list r = []);
  Ring.push r 1;
  Ring.push r 2;
  check_int "partial fill" 2 (Ring.length r);
  check "oldest first" true (Ring.to_list r = [ 1; 2 ])

let test_ring_wraparound () =
  let r = Ring.create ~capacity:4 in
  for i = 1 to 10 do
    Ring.push r i
  done;
  check_int "length capped at capacity" 4 (Ring.length r);
  check "keeps the newest, oldest first" true (Ring.to_list r = [ 7; 8; 9; 10 ]);
  (* Wrap exactly once more around the boundary. *)
  Ring.push r 11;
  check "still oldest first after another push" true
    (Ring.to_list r = [ 8; 9; 10; 11 ]);
  let seen = ref [] in
  Ring.iter r (fun x -> seen := x :: !seen);
  check "iter agrees with to_list" true (List.rev !seen = Ring.to_list r);
  Ring.clear r;
  check_int "clear empties" 0 (Ring.length r);
  Ring.push r 42;
  check "usable after clear" true (Ring.to_list r = [ 42 ])

let test_ring_invalid_capacity () =
  check "capacity 0 rejected" true
    (try
       ignore (Ring.create ~capacity:0);
       false
     with Invalid_argument _ -> true)

(* ---------------- tracer ---------------- *)

let ev ?(time = 1.0) ?(node = 0) kind = { Event.time; node; kind }
let b1 = { Event.n = 5; prio = 0; pid = 1 }

let test_sink_fanout () =
  let a = ref [] and b = ref [] in
  let ia = Trace.subscribe (fun e -> a := e :: !a) in
  let ib = Trace.subscribe (fun e -> b := e :: !b) in
  Trace.set_enabled true;
  check "hot with sinks" true (Trace.on ());
  Trace.emit_at ~time:1.0 ~node:3 Event.Crashed;
  check_int "first sink got it" 1 (List.length !a);
  check_int "second sink got it" 1 (List.length !b);
  Trace.unsubscribe ia;
  Trace.emit_at ~time:2.0 ~node:3 Event.Recovered;
  check_int "unsubscribed sink stops" 1 (List.length !a);
  check_int "remaining sink continues" 2 (List.length !b);
  (* Enabled but unsubscribed: the guard must be cold (the disabled-path
     cost model bench/check_overhead.ml verifies relies on this). *)
  Trace.unsubscribe ib;
  check "enabled but unsubscribed is cold" false (Trace.on ());
  (* Disabled with a sink: also cold, and emits are dropped. *)
  let cnt = ref 0 in
  let ic = Trace.subscribe (fun _ -> incr cnt) in
  Trace.set_enabled false;
  check "disabled is cold" false (Trace.on ());
  Trace.emit_at ~time:3.0 ~node:0 Event.Crashed;
  check_int "no events while disabled" 0 !cnt;
  Trace.unsubscribe ic

let test_with_recording () =
  Trace.set_enabled false;
  let v, { Trace.events; dropped; dropped_by_kind } =
    Trace.with_recording (fun () ->
        Trace.emit_at ~time:1.0 ~node:2
          (Event.Session_drop { peer = 0; session = 1 });
        Trace.emit_at ~time:2.0 ~node:2
          (Event.Session_up { peer = 0; session = 2 });
        17)
  in
  check_int "returns the function's result" 17 v;
  check_int "recorded both events" 2 (List.length events);
  check_int "complete recording reports no drops" 0 dropped;
  check "no drops means empty breakdown" true (dropped_by_kind = []);
  check "oldest first" true
    ((List.hd events).Event.kind = Event.Session_drop { peer = 0; session = 1 });
  check "tracer state restored" false (Trace.is_enabled ());
  (* The bounded ring drops the oldest events of an over-long run — and
     says so, instead of passing the truncation off as a complete trace. *)
  let (), { Trace.events; dropped; dropped_by_kind } =
    Trace.with_recording ~capacity:3 (fun () ->
        for i = 1 to 5 do
          Trace.emit_at ~time:(float_of_int i) ~node:0 Event.Crashed
        done)
  in
  check "over-capacity run keeps the newest" true
    (List.map (fun (e : Event.t) -> e.time) events = [ 3.0; 4.0; 5.0 ]);
  check_int "overflow is counted" 2 dropped;
  check "overflow is attributed per kind" true
    (dropped_by_kind = [ ("crash", 2) ])

let test_event_json () =
  let b = { Event.n = 3; prio = 1; pid = 2 } in
  let j =
    Event.to_json (ev ~time:12.5 ~node:1 (Event.Decided { b; decided_idx = 7 }))
  in
  check "decide json" true
    (j = {|{"t":12.500,"node":1,"kind":"decide","ballot":{"n":3,"prio":1,"pid":2},"decided_idx":7}|});
  let j =
    Event.to_json
      (ev
         (Event.Msg_drop
            { src = 0; dst = 1; reason = "link-down"; session = 4; send_id = 9 }))
  in
  check "drop json has reason, session and send_id" true
    (j
    = {|{"t":1.000,"node":0,"kind":"drop","src":0,"dst":1,"reason":"link-down","session":4,"send_id":9}|}
    );
  (* Strings are escaped defensively. *)
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  let j =
    Event.to_json (ev (Event.Reconfig { config_id = 1; milestone = {|a"b|} }))
  in
  check "escaped quote" true (contains j {|a\"b|})

(* ---------------- histogram ---------------- *)

let test_histogram_bucketing () =
  let h = Metric.Histogram.create () in
  check "empty mean is nan" true (Float.is_nan (Metric.Histogram.mean h));
  check "empty percentile is nan" true
    (Float.is_nan (Metric.Histogram.percentile h ~p:50.0));
  (* Base-2 log buckets: bucket 0 = [0,1), then [1,2), [2,4), [4,8)... *)
  List.iter (Metric.Histogram.observe h) [ 0.0; 0.5; 1.0; 1.5; 3.0; 6.0; 6.0 ];
  check_int "count" 7 (Metric.Histogram.count h);
  checkf "sum" 18.0 (Metric.Histogram.sum h);
  check "buckets are (upper-bound, count) ascending" true
    (Metric.Histogram.buckets h = [ (1.0, 2); (2.0, 2); (4.0, 1); (8.0, 2) ]);
  checkf "exact mean" (18.0 /. 7.0) (Metric.Histogram.mean h);
  checkf "exact min" 0.0 (Metric.Histogram.min_value h);
  checkf "exact max" 6.0 (Metric.Histogram.max_value h);
  (* Negative samples clamp to 0 (bucket 0). *)
  let h2 = Metric.Histogram.create () in
  Metric.Histogram.observe h2 (-5.0);
  checkf "negative clamped" 0.0 (Metric.Histogram.max_value h2);
  check "clamped into bucket 0" true
    (Metric.Histogram.buckets h2 = [ (1.0, 1) ]);
  (* Percentiles interpolate within a bucket and are monotone. *)
  let h3 = Metric.Histogram.create () in
  for _ = 1 to 100 do
    Metric.Histogram.observe h3 5.0
  done;
  let p50 = Metric.Histogram.percentile h3 ~p:50.0 in
  check "p50 inside [4,8) bucket clamped to [5,5]" true (p50 = 5.0);
  List.iter (fun x -> Metric.Histogram.observe h3 x) [ 100.0; 200.0 ];
  let p50 = Metric.Histogram.percentile h3 ~p:50.0
  and p99 = Metric.Histogram.percentile h3 ~p:99.0 in
  check "percentile monotone" true (p50 <= p99);
  check "p99 above the bulk" true (p99 > 5.0)

let test_histogram_stddev () =
  let h = Metric.Histogram.create () in
  check "stddev of empty" true (Metric.Histogram.stddev h = 0.0);
  Metric.Histogram.observe h 4.0;
  check "stddev of one" true (Metric.Histogram.stddev h = 0.0);
  List.iter (Metric.Histogram.observe h) [ 2.0; 6.0 ];
  (* Samples 4, 2, 6: mean 4, sample variance ((0+4+4)/2) = 4. *)
  checkf "sample stddev" 2.0 (Metric.Histogram.stddev h)

let test_registry () =
  let r = Metric.Registry.create () in
  let c = Metric.Registry.counter r "decides" in
  Metric.Counter.incr c;
  Metric.Counter.add c 2;
  check_int "same name, same counter" 3
    (Metric.Counter.value (Metric.Registry.counter r "decides"));
  Metric.Gauge.set (Metric.Registry.gauge r "leader") 4.0;
  Metric.Histogram.observe (Metric.Registry.histogram r "gap_ms") 3.0;
  check_int "one line per metric" 3 (List.length (Metric.Registry.to_lines r));
  Metric.Registry.clear r;
  check_int "clear resets" 0
    (Metric.Counter.value (Metric.Registry.counter r "decides"))

let test_event_json_roundtrip () =
  let b = { Event.n = 2; prio = 1; pid = 0 } in
  let samples =
    [
      ev (Event.Ballot_increment b);
      ev (Event.Leader_elected b);
      ev (Event.Leader_changed b);
      ev (Event.Prepare_round { b; log_idx = 3; decided_idx = 2 });
      ev (Event.Promise_sent { b; log_idx = 3; decided_idx = 2 });
      ev (Event.Accept_sent { b; start_idx = 1; count = 4 });
      ev (Event.Accepted_idx { b; log_idx = 5 });
      ev (Event.Decided { b; decided_idx = 5 });
      ev (Event.Proposed { log_idx = 7; cmd_id = 42 });
      ev
        (Event.Batch_flush
           { entries = 3; followers = 2; cap = 64; trigger = "size" });
      ev (Event.Cap_change { cap_from = 64; cap_to = 128 });
      ev (Event.Session_drop { peer = 1; session = 2 });
      ev (Event.Session_up { peer = 1; session = 3 });
      ev (Event.Link_cut { a = 0; b = 1 });
      ev (Event.Link_heal { a = 0; b = 1 });
      ev Event.Crashed;
      ev Event.Recovered;
      ev (Event.Reconfig { config_id = 1; milestone = "migration-done" });
      ev (Event.Msg_send { dst = 1; size = 100; send_id = 7; lc = 3 });
      ev (Event.Msg_deliver { src = 0; size = 100; send_id = 7; lc = 4 });
      ev
        (Event.Msg_drop
           { src = 0; dst = 1; reason = "link-down"; session = 2; send_id = 8 });
      ev (Event.Chaos_fault { step = 2; fault = "crash(1)" });
      ev (Event.Chaos_invoke { client = 0; op_id = 5; op = "put k 1" });
      ev (Event.Chaos_response { client = 0; op_id = 5; result = "ok" });
    ]
  in
  List.iter
    (fun e ->
      match Event.of_json (Event.to_json e) with
      | Ok e' -> check (Event.kind_name e.Event.kind) true (e = e')
      | Error msg ->
          Alcotest.failf "of_json failed for %s: %s"
            (Event.kind_name e.Event.kind)
            msg)
    samples;
  check "malformed json rejected" true (Result.is_error (Event.of_json "{"));
  check "unknown kind rejected" true
    (Result.is_error (Event.of_json {|{"t":1.0,"node":0,"kind":"nope"}|}))

(* ---------------- causal pairing ---------------- *)

let test_causal_pair () =
  let tr =
    [
      ev ~time:1.0 ~node:0
        (Event.Msg_send { dst = 1; size = 10; send_id = 0; lc = 1 });
      ev ~time:1.5 ~node:1
        (Event.Msg_deliver { src = 0; size = 10; send_id = 0; lc = 2 });
      (* Sent but never delivered. *)
      ev ~time:2.0 ~node:0
        (Event.Msg_send { dst = 1; size = 5; send_id = 1; lc = 3 });
      (* Delivered without a recorded send (ring overflow evidence). *)
      ev ~time:3.0 ~node:1
        (Event.Msg_deliver { src = 0; size = 9; send_id = 99; lc = 9 });
    ]
  in
  let edges, stats = Causal.pair tr in
  check_int "one matched edge" 1 (List.length edges);
  let e = List.hd edges in
  check "edge endpoints" true
    (e.Causal.src = 0 && e.Causal.dst = 1 && e.Causal.send_id = 0);
  check "edge times" true
    (e.Causal.sent_at = 1.0 && e.Causal.delivered_at = 1.5);
  check_int "unmatched send counted" 1 stats.Causal.unmatched_sends;
  check_int "orphan deliver counted" 1 stats.Causal.orphan_delivers;
  check "clocks consistent" true (Causal.lamport_consistent tr = Ok ())

let test_lamport_violation () =
  let tr =
    [
      ev ~time:1.0 ~node:0
        (Event.Msg_send { dst = 1; size = 10; send_id = 0; lc = 5 });
      (* Delivery clock must exceed the send clock. *)
      ev ~time:1.5 ~node:1
        (Event.Msg_deliver { src = 0; size = 10; send_id = 0; lc = 5 });
    ]
  in
  check "non-increasing delivery clock detected" true
    (Result.is_error (Causal.lamport_consistent tr));
  let tr =
    [
      ev ~time:1.0 ~node:0
        (Event.Msg_send { dst = 1; size = 10; send_id = 0; lc = 5 });
      (* A node's own message clocks must strictly increase. *)
      ev ~time:2.0 ~node:0
        (Event.Msg_send { dst = 1; size = 10; send_id = 1; lc = 5 });
    ]
  in
  check "stuck sender clock detected" true
    (Result.is_error (Causal.lamport_consistent tr))

let test_critical_path () =
  let arr =
    [|
      ev ~time:1.0 ~node:0 (Event.Proposed { log_idx = 0; cmd_id = 0 });
      ev ~time:2.0 ~node:0
        (Event.Msg_send { dst = 1; size = 10; send_id = 0; lc = 1 });
      ev ~time:2.5 ~node:1
        (Event.Msg_deliver { src = 0; size = 10; send_id = 0; lc = 2 });
      ev ~time:3.0 ~node:1 (Event.Accepted_idx { b = b1; log_idx = 1 });
    |]
  in
  let stop (e : Event.t) =
    match e.Event.kind with
    | Event.Proposed _ -> true
    | _ -> false
  in
  (* Walk back from the follower ack: ack -> its delivery -> the matching
     send on the other node -> the leader's previous event (the stop). *)
  check "hops cross the network edge" true
    (Causal.critical_path arr ~target:3 ~stop = [ 0; 1; 2; 3 ]);
  (* max_len bounds the number of hops, so at most max_len + 1 indices. *)
  check "bounded walk" true
    (Causal.critical_path ~max_len:1 arr ~target:3 ~stop = [ 2; 3 ])

(* ---------------- span assembly ---------------- *)

let test_span_assembly () =
  let b = { Event.n = 1; prio = 0; pid = 2 } in
  let tr =
    [
      ev ~time:1.0 ~node:2 (Event.Proposed { log_idx = 0; cmd_id = 10 });
      ev ~time:2.0 ~node:2 (Event.Accept_sent { b; start_idx = 0; count = 1 });
      ev ~time:3.0 ~node:0 (Event.Accepted_idx { b; log_idx = 1 });
      ev ~time:4.0 ~node:2 (Event.Decided { b; decided_idx = 1 });
    ]
  in
  let spans = Span.assemble ~n:3 tr in
  check_int "one span" 1 (List.length spans);
  let s = List.hd spans in
  check_int "log idx" 0 s.Span.log_idx;
  check_int "cmd id" 10 s.Span.cmd_id;
  check_int "leader is the proposing node" 2 s.Span.leader;
  check "proposed at" true (s.Span.proposed_at = 1.0);
  check "first accept" true (s.Span.first_accept_at = Some 2.0);
  (* n=3: quorum 2, so one non-leader ack completes the quorum. *)
  check "quorum ack" true (s.Span.quorum_ack_at = Some 3.0);
  check "decided" true (s.Span.decided_at = Some 4.0);
  check "total" true (Span.total s = Some 3.0);
  check "queueing" true (Span.queueing s = Some 1.0);
  check "replication" true (Span.replication s = Some 1.0);
  check "commit" true (Span.commit s = Some 1.0)

let test_span_undecided_and_reproposal () =
  let tr =
    [
      ev ~time:1.0 ~node:2 (Event.Proposed { log_idx = 0; cmd_id = 1 });
      (* Leader change: the same index is re-proposed by another node. *)
      ev ~time:2.0 ~node:1 (Event.Proposed { log_idx = 0; cmd_id = 2 });
    ]
  in
  let spans = Span.assemble ~n:3 tr in
  check_int "re-proposal replaces, not duplicates" 1 (List.length spans);
  let s = List.hd spans in
  check_int "latest proposer wins" 1 s.Span.leader;
  check_int "latest command wins" 2 s.Span.cmd_id;
  check "never decided" true (s.Span.decided_at = None);
  check "no total without decide" true (Span.total s = None)

let test_span_invoke_applied () =
  let b = { Event.n = 1; prio = 0; pid = 0 } in
  let tr =
    [
      ev ~time:0.5 ~node:0
        (Event.Chaos_invoke { client = 1; op_id = 10; op = "put k 1" });
      ev ~time:1.0 ~node:0 (Event.Proposed { log_idx = 0; cmd_id = 10 });
      ev ~time:2.0 ~node:0 (Event.Accept_sent { b; start_idx = 0; count = 1 });
      ev ~time:3.0 ~node:1 (Event.Accepted_idx { b; log_idx = 1 });
      ev ~time:4.0 ~node:0 (Event.Decided { b; decided_idx = 1 });
      ev ~time:5.0 ~node:0
        (Event.Chaos_response { client = 1; op_id = 10; result = "ok" });
    ]
  in
  let s = List.hd (Span.assemble ~n:3 tr) in
  check "invoke matched by cmd id" true (s.Span.invoke_at = Some 0.5);
  check "applied matched by cmd id" true (s.Span.applied_at = Some 5.0)

(* ---------------- health detectors ---------------- *)

let hcfg =
  {
    Health.n = 3;
    stall_ms = 100.0;
    churn_window_ms = 1000.0;
    churn_threshold = 2;
    suspect_after = 2;
  }

let db idx = Event.Decided { b = b1; decided_idx = idx }

let has_alert h ~edge ~substr =
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  List.exists
    (fun (a : Health.alert) -> a.edge = edge && contains a.what substr)
    (Health.alerts h)

let test_health_stall_edges () =
  let h =
    Health.run hcfg
      [
        ev ~time:0.0 ~node:0 (db 1);
        (* Quiet period beyond stall_ms: any event drives the watchdog. *)
        ev ~time:150.0 ~node:0 (Event.Session_up { peer = 1; session = 1 });
        ev ~time:160.0 ~node:0 (db 2);
      ]
  in
  check "stall triggered" true (has_alert h ~edge:Health.Trigger ~substr:"stall");
  check "stall cleared by the next decide" true
    (has_alert h ~edge:Health.Clear ~substr:"stall");
  (* No trigger when decides keep flowing. *)
  let h =
    Health.run hcfg [ ev ~time:0.0 ~node:0 (db 1); ev ~time:50.0 ~node:0 (db 2) ]
  in
  check "no stall under steady decides" false
    (has_alert h ~edge:Health.Trigger ~substr:"stall")

let test_health_churn_edges () =
  let h =
    Health.run hcfg
      [
        ev ~time:10.0 ~node:0 (Event.Leader_changed b1);
        ev ~time:20.0 ~node:0 (Event.Leader_changed b1);
        (* Past the window the meter empties and the alert clears. *)
        ev ~time:2000.0 ~node:0 (db 1);
      ]
  in
  check "churn triggered at the threshold" true
    (has_alert h ~edge:Health.Trigger ~substr:"churn");
  check "churn cleared once the window drains" true
    (has_alert h ~edge:Health.Clear ~substr:"churn");
  let h = Health.run hcfg [ ev ~time:10.0 ~node:0 (Event.Leader_changed b1) ] in
  check "single change below threshold" false
    (has_alert h ~edge:Health.Trigger ~substr:"churn")

let test_health_suspect_edges () =
  let drop =
    Event.Msg_drop
      { src = 0; dst = 1; reason = "link-down"; session = 1; send_id = 1 }
  in
  let h =
    Health.run hcfg [ ev ~time:1.0 ~node:0 drop; ev ~time:2.0 ~node:0 drop ]
  in
  check "suspect after consecutive drops" true
    (has_alert h ~edge:Health.Trigger ~substr:"suspect 0->1");
  check "pair listed while suspected" true (Health.suspects h = [ (0, 1) ]);
  let h =
    Health.run hcfg
      [
        ev ~time:1.0 ~node:0 drop;
        ev ~time:2.0 ~node:0 drop;
        ev ~time:3.0 ~node:1
          (Event.Msg_deliver { src = 0; size = 10; send_id = 2; lc = 1 });
      ]
  in
  check "delivery clears the suspicion" true
    (has_alert h ~edge:Health.Clear ~substr:"suspect 0->1");
  check "no pairs after clear" true (Health.suspects h = []);
  (* A single drop between deliveries never reaches the threshold. *)
  let h =
    Health.run hcfg
      [
        ev ~time:1.0 ~node:0 drop;
        ev ~time:2.0 ~node:1
          (Event.Msg_deliver { src = 0; size = 10; send_id = 2; lc = 1 });
        ev ~time:3.0 ~node:0 drop;
      ]
  in
  check "interleaved drops stay below threshold" false
    (has_alert h ~edge:Health.Trigger ~substr:"suspect")

let test_health_recovery_episode () =
  let h =
    Health.run hcfg
      [
        ev ~time:0.0 ~node:0 (db 1);
        ev ~time:10.0 ~node:1 Event.Crashed;
        (* Faults in a burst coalesce into one episode. *)
        ev ~time:12.0 ~node:0 (Event.Link_cut { a = 0; b = 1 });
        ev ~time:20.0 ~node:2 (Event.Ballot_increment b1);
        ev ~time:50.0 ~node:2 (db 2);
      ]
  in
  (match Health.recoveries h with
  | [ r ] ->
      check "fault time" true (r.Health.fault_at = 10.0);
      check_int "burst coalesced" 2 r.Health.faults;
      check "detect latency" true (Health.detect_latency r = Some 10.0);
      check "recovery latency" true (Health.recovery_latency r = Some 40.0)
  | rs -> Alcotest.failf "expected one closed episode, got %d" (List.length rs));
  (* A trace ending mid-episode reports it open (no decide_at). *)
  let h =
    Health.run hcfg
      [ ev ~time:0.0 ~node:0 (db 1); ev ~time:10.0 ~node:1 Event.Crashed ]
  in
  (match Health.recoveries h with
  | [ r ] -> check "open episode has no decide" true (r.Health.decide_at = None)
  | rs -> Alcotest.failf "expected one open episode, got %d" (List.length rs))

(* ---------------- invariants ---------------- *)

let legit_trace =
  [
    ev ~time:1.0 ~node:1 (Event.Ballot_increment b1);
    ev ~time:2.0 ~node:1 (Event.Leader_elected b1);
    ev ~time:3.0 ~node:1
      (Event.Prepare_round { b = b1; log_idx = 0; decided_idx = 0 });
    ev ~time:4.0 ~node:1 (Event.Accept_sent { b = b1; start_idx = 0; count = 3 });
    ev ~time:5.0 ~node:2 (Event.Accepted_idx { b = b1; log_idx = 3 });
    ev ~time:6.0 ~node:1 (Event.Decided { b = b1; decided_idx = 3 });
    ev ~time:7.0 ~node:2 (Event.Decided { b = b1; decided_idx = 3 });
  ]

let test_invariants_pass () =
  check "single leader ok" true
    (Invariant.single_leader_per_ballot legit_trace = Ok ());
  check "monotone ok" true
    (Invariant.decided_prefix_monotonic legit_trace = Ok ());
  check "check_all all green" true
    (List.for_all (fun (_, r) -> r = Ok ()) (Invariant.check_all legit_trace))

(* The injected split-brain: node 2 drives Accepts under node 1's ballot. *)
let test_two_leaders_one_ballot () =
  let bad =
    legit_trace
    @ [ ev ~time:8.0 ~node:2
          (Event.Accept_sent { b = b1; start_idx = 3; count = 1 });
      ]
  in
  match Invariant.single_leader_per_ballot bad with
  | Ok () -> Alcotest.fail "two leaders under one ballot not detected"
  | Error v ->
      check "violation at the offending event" true (v.Invariant.at = 8.0);
      check_int "offending node" 2 v.Invariant.node;
      check "check_all reports it too" true
        (List.exists
           (fun (name, r) ->
             name = "single-leader-per-ballot" && r <> Ok ())
           (Invariant.check_all bad))

(* Compaction events interleaved with decides must not trip the monotone
   invariant: a snapshot install jumps a lagging node's decided index
   forward (here node 2 installs at 5 after deciding 3), never back. *)
let test_monotone_across_install () =
  let tr =
    legit_trace
    @ [
        ev ~time:8.0 ~node:1 (Event.Snapshot_taken { idx = 5; bytes = 40 });
        ev ~time:8.1 ~node:1 (Event.Log_trimmed { upto = 5; entries = 5 });
        ev ~time:8.2 ~node:1 (Event.Decided { b = b1; decided_idx = 6 });
        ev ~time:8.5 ~node:2 (Event.Snapshot_installed { idx = 5; bytes = 40 });
        ev ~time:8.6 ~node:2 (Event.Log_trimmed { upto = 5; entries = 2 });
        ev ~time:9.0 ~node:2 (Event.Decided { b = b1; decided_idx = 6 });
      ]
  in
  check "monotone across install" true
    (Invariant.decided_prefix_monotonic tr = Ok ());
  check "check_all all green" true
    (List.for_all (fun (_, r) -> r = Ok ()) (Invariant.check_all tr))

let test_decided_regression_detected () =
  let bad =
    legit_trace @ [ ev ~time:9.0 ~node:2 (Event.Decided { b = b1; decided_idx = 1 }) ]
  in
  match Invariant.decided_prefix_monotonic bad with
  | Ok () -> Alcotest.fail "decided-index regression not detected"
  | Error v -> check_int "regressing node" 2 v.Invariant.node

(* ------------------------- profiler ------------------------- *)

module Profile = Obs.Profile

let test_profile_scoping () =
  let clock = ref 0.0 in
  Profile.set_clock (fun () -> !clock);
  let (), root =
    Profile.with_profile (fun () ->
        for _ = 1 to 3 do
          Profile.wrap "outer" (fun () ->
              clock := !clock +. 10.0;
              Profile.wrap "inner" (fun () -> ()))
        done;
        Profile.wrap "other" (fun () -> ()))
  in
  Profile.set_clock (fun () -> 0.0);
  let row label =
    List.find (fun (r : Profile.row) -> r.Profile.r_label = label)
      (Profile.flat root)
  in
  Alcotest.(check int) "outer calls" 3 (row "outer").Profile.r_calls;
  Alcotest.(check int) "inner calls" 3 (row "inner").Profile.r_calls;
  Alcotest.(check int) "sibling calls" 1 (row "other").Profile.r_calls;
  (* The clock advanced inside "outer" but not inside "inner": sim time is
     attributed to the frame that was open while it moved. *)
  Alcotest.(check (float 1e-9)) "outer sim-ms" 30.0 (row "outer").Profile.r_sim_ms;
  Alcotest.(check (float 1e-9)) "inner sim-ms" 0.0 (row "inner").Profile.r_sim_ms;
  check "guard off outside a capture" true (not (Profile.on ()))

let test_profile_exception_safety () =
  let (), root =
    Profile.with_profile (fun () ->
        (try Profile.wrap "boom" (fun () -> failwith "x") with Failure _ -> ());
        Profile.wrap "after" (fun () -> ()))
  in
  let labels =
    List.map (fun (r : Profile.row) -> r.Profile.r_label) (Profile.flat root)
  in
  check "failed frame still recorded" true (List.mem "boom" labels);
  check "stack unwound: sibling not nested under the failed frame" true
    (List.mem "after" labels)

(* A 1,000-cell list is 3,000 words (header, head, tail per cell). The
   frame is charged for it even though it fits in the minor heap without a
   collection. *)
let test_profile_alloc_words () =
  let kept = ref [] in
  let (), root =
    Profile.with_profile (fun () ->
        Profile.wrap "alloc" (fun () -> kept := List.init 1000 Fun.id))
  in
  let row =
    List.find (fun (r : Profile.row) -> r.Profile.r_label = "alloc")
      (Profile.flat root)
  in
  check_int "list kept" 1000 (List.length !kept);
  check "frame charged at least 3,000 words" true
    (row.Profile.r_alloc_w >= 3000.0)

let test_profile_json_deterministic () =
  let go () =
    let (), root =
      Profile.with_profile (fun () ->
          Profile.wrap "a" (fun () -> Profile.wrap "b" (fun () -> ())))
    in
    Bench_report.Json.to_string (Profile.to_json root)
  in
  check "double capture renders identically" true (String.equal (go ()) (go ()))

let () =
  Alcotest.run "obs"
    [
      ( "ring",
        [
          Alcotest.test_case "basic" `Quick test_ring_basic;
          Alcotest.test_case "wraparound" `Quick test_ring_wraparound;
          Alcotest.test_case "invalid capacity" `Quick
            test_ring_invalid_capacity;
        ] );
      ( "trace",
        [
          Alcotest.test_case "sink fan-out" `Quick test_sink_fanout;
          Alcotest.test_case "with_recording" `Quick test_with_recording;
          Alcotest.test_case "event json" `Quick test_event_json;
        ] );
      ( "metric",
        [
          Alcotest.test_case "histogram bucketing" `Quick
            test_histogram_bucketing;
          Alcotest.test_case "histogram stddev" `Quick test_histogram_stddev;
          Alcotest.test_case "registry" `Quick test_registry;
        ] );
      ( "invariant",
        [
          Alcotest.test_case "clean trace passes" `Quick test_invariants_pass;
          Alcotest.test_case "two leaders one ballot" `Quick
            test_two_leaders_one_ballot;
          Alcotest.test_case "decided regression" `Quick
            test_decided_regression_detected;
          Alcotest.test_case "monotone across snapshot install" `Quick
            test_monotone_across_install;
        ] );
      ( "causal",
        [
          Alcotest.test_case "json round-trip all kinds" `Quick
            test_event_json_roundtrip;
          Alcotest.test_case "send/deliver pairing" `Quick test_causal_pair;
          Alcotest.test_case "lamport violations" `Quick test_lamport_violation;
          Alcotest.test_case "critical path" `Quick test_critical_path;
        ] );
      ( "span",
        [
          Alcotest.test_case "lifecycle milestones" `Quick test_span_assembly;
          Alcotest.test_case "undecided and re-proposal" `Quick
            test_span_undecided_and_reproposal;
          Alcotest.test_case "invoke/applied matching" `Quick
            test_span_invoke_applied;
        ] );
      ( "health",
        [
          Alcotest.test_case "stall trigger and clear" `Quick
            test_health_stall_edges;
          Alcotest.test_case "churn trigger and clear" `Quick
            test_health_churn_edges;
          Alcotest.test_case "suspect trigger and clear" `Quick
            test_health_suspect_edges;
          Alcotest.test_case "recovery episodes" `Quick
            test_health_recovery_episode;
        ] );
      ( "profile",
        [
          Alcotest.test_case "scoping and sim-time attribution" `Quick
            test_profile_scoping;
          Alcotest.test_case "exception safety" `Quick
            test_profile_exception_safety;
          Alcotest.test_case "json determinism" `Quick
            test_profile_json_deterministic;
          Alcotest.test_case "alloc words" `Quick test_profile_alloc_words;
        ] );
    ]
