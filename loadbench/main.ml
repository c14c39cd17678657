(* The benchmark command: one workload, one seed, one measuring budget.

     main.exe --workload NAME --seed N --seconds S --trace 0|1 [--workdir D]

   Within the budget it repeats the workload from a fresh cluster on the
   same generated input; simulated figures must repeat exactly across the
   repetitions. Host times come from the fastest repetition, allocation
   is a median. With
   [--trace 0] it prints the end-to-end metrics; with [--trace 1] it
   alternates untraced and traced repetitions and prints the per-layer
   metrics. The last line of stdout is the JSON result. *)

let lan = { Rsm.Cluster.default_config with n = 3 }

let steady_load =
  {
    Load.cluster = lan;
    wan = false;
    rate = 250.0;
    kv = false;
    warmup_ms = 200.0;
    window_ms = 250.0;
    drain_ms = 1000.0;
    retry_ms = 200.0;
    faults = Load.Steady;
    trace_file = None;
  }

type protocol = Omni | Raft_pvcq | Multipaxos | Vr

module Omni_run = Load.Make (Probe.Omni)
module Raft_run = Load.Make (Probe.Raft_pvcq)
module Multipaxos_run = Load.Make (Probe.Multi_paxos)
module Vr_run = Load.Make (Probe.Vr_proto)

let run_protocol = function
  | Omni -> Omni_run.run
  | Raft_pvcq -> Raft_run.run
  | Multipaxos -> Multipaxos_run.run
  | Vr -> Vr_run.run

type workload = { spec : Load.spec; protocols : protocol list }

let workload ~workdir = function
  | "lan-steady" -> { spec = steady_load; protocols = [ Omni ] }
  | "partial-connectivity" ->
      {
        spec =
          {
            steady_load with
            cluster = { lan with n = 5 };
            rate = 2.0;
            warmup_ms = 1000.0;
            (* Two cycles of three episodes: 25 ms pre-cut, 2 s partition,
               1 s healed. *)
            window_ms = 2.0 *. 3.0 *. 3025.0;
            faults =
              Load.Scenario_cycle { partition_ms = 2000.0; heal_ms = 1000.0 };
            trace_file = Some (Filename.concat workdir "partial.trace");
          };
        protocols = [ Omni ];
      }
  | "wan-kv-egress" ->
      {
        spec =
          {
            Load.cluster =
              {
                lan with
                n = 5;
                election_timeout_ms = 1000.0;
                egress_bw = 2400.0;
                compaction = Omnipaxos.Compaction.make ~retain:2000 5000;
              };
            wan = true;
            rate = 6.0;
            kv = true;
            warmup_ms = 3000.0;
            window_ms = 10_000.0;
            drain_ms = 10_000.0;
            retry_ms = 8000.0;
            (* Server 2 is in Europe; server 4, in the US, leads. *)
            faults =
              Load.Crash_follower { node = 2; at_ms = 2000.0; down_ms = 2500.0 };
            trace_file = None;
          };
        protocols = [ Omni ];
      }
  | "baselines-lan" ->
      { spec = steady_load; protocols = [ Raft_pvcq; Multipaxos; Vr ] }
  | w -> invalid_arg ("unknown workload " ^ w)

let protocol_keys = [ "omnipaxos"; "raft_pvcq"; "multipaxos"; "vr" ]

(* ---- figures from the raw results of one repetition ---- *)

let get (r : Load.raw) k = List.assoc k r.Load.sim
let sum rs f = List.fold_left (fun a r -> a +. f r) 0.0 rs
let maxf rs f = List.fold_left (fun a r -> Float.max a (f r)) 0.0 rs
let simsum rs k = sum rs (fun r -> get r k)
let ratio a b = if b > 0.0 then a /. b else 0.0
let fi = float_of_int

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let fastest f xs = List.fold_left (fun m x -> Float.min m (f x)) infinity xs

(* Host seconds of one protocol's part of a repetition, from its fastest
   repetition (min-of-N). The shared host alternates between a fast and a
   slow speed within seconds; the median repetition reports the mix of the
   two, the fastest one the program. *)
let fastest_s ns key reps =
  fastest
    (fun rs -> sum rs (fun r -> if r.Load.key = key then fi (ns r) else 0.0))
    reps
  /. 1e9

(* The same, summed over the protocols a workload runs. *)
let total_fastest_s ns reps =
  sum (List.hd reps) (fun r -> fastest_s ns r.Load.key reps)

let window_ns (r : Load.raw) = r.Load.window_ns

let committed rs = simsum rs "committed"

(* Committed window commands per host second of the window and drain. On a
   workload that runs several protocols it is the geometric mean of each
   one's figure, so every protocol weighs the same whatever its speed. *)
let cmds_per_host_s reps =
  let first = List.hd reps in
  let log_rate (r : Load.raw) =
    log (ratio (committed [ r ]) (fastest_s window_ns r.Load.key reps))
  in
  exp (sum first log_rate /. fi (List.length first))

(* A value failed commands stand for in a percentile (JSON has no
   infinity): larger than any drain. *)
let never_ms = 1e9

type latency = { p50 : float; p99 : float; p999 : float; samples : int }

let latency rs =
  let all = Array.concat (List.map (fun r -> r.Load.lat) rs) in
  Array.sort Float.compare all;
  let p q =
    let v = Stats.percentile all q in
    if Float.is_finite v then v else never_ms
  in
  { p50 = p 50.0; p99 = p 99.0; p999 = p 99.9; samples = Array.length all }

(* What must repeat exactly between repetitions of one seed. *)
let fingerprint rs =
  List.map
    (fun (r : Load.raw) ->
      ( r.Load.key,
        r.Load.sim,
        r.Load.downtime_ms,
        Array.fold_left (fun a x -> if Float.is_finite x then a +. x else a) 0.0
          r.Load.lat ))
    rs

let end_to_end ~peak_heap_words reps =
  let first = List.hd reps in
  let lat = latency first in
  let due = simsum first "due" and done_ = committed first in
  ( [
      ("cmds_per_host_s", "cmd/s", cmds_per_host_s reps);
      ( "alloc_words_per_cmd",
        "words",
        median
          (List.map
             (fun rs ->
               ratio
                 (sum rs (fun r -> List.assoc "alloc_words" r.Load.gc))
                 (committed rs))
             reps) );
      ( "peak_heap_mb",
        "MB",
        fi peak_heap_words *. fi (Sys.word_size / 8) /. 1e6 );
      ("setup_s", "s", total_fastest_s (fun r -> r.Load.setup_ns) reps);
      ("commit_p50_ms", "sim_ms", lat.p50);
      ("commit_p99_ms", "sim_ms", lat.p99);
      ("commit_p999_ms", "sim_ms", lat.p999);
      ("downtime_ms", "sim_ms", maxf first (fun r -> r.Load.downtime_ms));
      ("committed_frac", "ratio", ratio done_ due);
    ],
    lat )

(* Per-layer figures: counts from the first traced repetition (they repeat
   exactly), times from the fastest traced repetition. *)
let per_layer ~(spec : Load.spec) ~plain ~traced =
  let first = List.hd traced in
  let c = committed first in
  let per_cmd k = ratio (simsum first k) c in
  let tsum rs k = sum rs (fun r -> List.assoc k r.Load.traced) in
  let span_self (r : Load.raw) cat = fi r.Load.spans.Span.self.(cat) in
  let span_incl (r : Load.raw) cat = fi r.Load.spans.Span.incl.(cat) in
  let span_calls (r : Load.raw) cat = fi r.Load.spans.Span.calls.(cat) in
  let timed f = fastest f traced in
  let attempts = tsum first "send_attempts" in
  let dropped =
    attempts -. simsum first "msgs" +. simsum first "undelivered"
  in
  let adapter_cats =
    Span.[ handle; handle_ble; tick; propose; adapter_other ]
  in
  let protocol key =
    let only rs = List.filter (fun r -> r.Load.key = key) rs in
    let mine = only first in
    let cp = committed mine in
    let over cats f r =
      sum r (fun r -> List.fold_left (fun a k -> a +. f r k) 0.0 cats)
    in
    let self_per cats per rs =
      let r = only rs in
      ratio (over cats span_self r) (per r)
    in
    let calls cats = over cats span_calls in
    let handles = Span.[ handle; handle_ble ] in
    List.map
      (fun (name, unit, v) -> (key ^ "." ^ name, unit, v))
      [
        ("handle_ns_per_msg", "ns", timed (self_per handles (calls handles)));
        ("host_ns_per_cmd", "ns", timed (self_per adapter_cats committed));
        ( "tick_ns_per_tick",
          "ns",
          timed (self_per [ Span.tick ] (calls [ Span.tick ])) );
        ("propose_ns_per_cmd", "ns", timed (self_per [ Span.propose ] committed));
        ("sends_per_cmd", "msgs", ratio (tsum mine "send_attempts") cp);
        ( "entries_per_batch",
          "entries",
          ratio (tsum mine "batch_entries") (tsum mine "batches") );
      ]
  in
  let omni = List.filter (fun r -> r.Load.key = "omnipaxos") first in
  let omni_sim k = simsum omni k in
  let egress_busy =
    if Float.is_finite spec.Load.cluster.Rsm.Cluster.egress_bw then
      maxf first (fun r ->
          ratio (get r "leader_bytes")
            (spec.Load.cluster.Rsm.Cluster.egress_bw *. get r "sim_ms"))
    else 0.0
  in
  let gc_per rs k = sum rs (fun r -> List.assoc k r.Load.gc) in
  [
    ("simnet.events_per_cmd", "events", per_cmd "events");
    ("simnet.dispatch.deliver_per_cmd", "events", per_cmd "deliver");
    ("simnet.dispatch.timer_per_cmd", "events", per_cmd "timer");
    ("simnet.dispatch.egress_step_per_cmd", "events", per_cmd "egress_step");
    ("simnet.msgs_per_cmd", "msgs", per_cmd "msgs");
    ("simnet.wire_bytes_per_cmd", "B", per_cmd "wire_bytes");
    ("simnet.leader_egress_busy_frac", "ratio", egress_busy);
    ( "simnet.egress_queue_high_water",
      "msgs",
      maxf first (fun r -> get r "egress_hw") );
    ("simnet.dropped_frac", "ratio", ratio dropped attempts);
    ("simnet.heap_high_water", "events", maxf first (fun r -> get r "heap_hw"));
    ( "simnet.self_ns_per_event",
      "ns",
      timed (fun rs ->
          ratio
            (sum rs (fun r -> span_self r Span.simnet))
            (simsum rs "events" +. simsum rs "gen_events")) );
    ( "simnet.send_ns_per_msg",
      "ns",
      timed (fun rs ->
          ratio
            (sum rs (fun r -> span_self r Span.send))
            (tsum rs "send_attempts")) );
    ( "cluster.propose_ns_per_cmd",
      "ns",
      timed (fun rs ->
          ratio (sum rs (fun r -> span_incl r Span.cluster)) (committed rs)) );
    ( "cluster.rejected_frac",
      "ratio",
      ratio (simsum first "rejected") (simsum first "proposals") );
    ("cluster.leader_changes", "count", simsum first "leader_changes");
    ("cluster.leaderless_ms", "sim_ms", simsum first "leaderless_ms");
  ]
  @ List.concat_map protocol protocol_keys
  @ [
      ( "omnipaxos.ble.msgs_per_sim_s",
        "msgs/s",
        ratio (tsum omni "ble_sends") (omni_sim "sim_ms" /. 1000.0) );
      ( "omnipaxos.ble.handle_ns_per_msg",
        "ns",
        timed (fun rs ->
            let r = List.filter (fun r -> r.Load.key = "omnipaxos") rs in
            ratio
              (sum r (fun r -> span_self r Span.handle_ble))
              (sum r (fun r -> span_calls r Span.handle_ble))) );
      ("omnipaxos.sp.sync_msgs", "msgs", tsum omni "sync_msgs");
      ("omnipaxos.sp.sync_bytes", "B", tsum omni "sync_bytes");
      ("omnipaxos.snapshot_installs", "count", omni_sim "installs");
      ("omnipaxos.catchup_ms", "sim_ms", omni_sim "catchup_ms");
      ("omnipaxos.catchup_bytes", "B", omni_sim "catchup_bytes");
      ("omnipaxos.follower_lag_max", "entries", omni_sim "follower_lag_max");
      ("obs.trace_events_per_cmd", "events", per_cmd "trace_events");
      ( "obs.trace_bytes_per_event",
        "B",
        ratio (simsum first "trace_bytes") (simsum first "trace_events") );
      ( "obs.sink_ns_per_event",
        "ns",
        timed (fun rs ->
            ratio
              (sum rs (fun r -> span_self r Span.sink))
              (simsum rs "trace_events")) );
      ( "gen.host_ns_per_cmd",
        "ns",
        timed (fun rs ->
            ratio (sum rs (fun r -> span_self r Span.gen)) (committed rs)) );
      ("gen.resubmits_per_kcmd", "count", 1000.0 *. per_cmd "resubmits");
      ("gen.backlog_max", "count", maxf first (fun r -> get r "backlog_max"));
      ("gen.dup_decides", "count", simsum first "dup_decides");
      ( "bench.traced_slowdown",
        "ratio",
        ratio (total_fastest_s window_ns traced)
          (total_fastest_s window_ns plain) );
      ( "gc.minor_collections_per_kcmd",
        "count",
        median
          (List.map
             (fun rs ->
               1000.0 *. ratio (gc_per rs "minor_collections") (committed rs))
             plain) );
      ( "gc.major_collections",
        "count",
        median (List.map (fun rs -> gc_per rs "major_collections") plain) );
      ( "gc.promoted_words_per_cmd",
        "words",
        median
          (List.map
             (fun rs -> ratio (gc_per rs "promoted_words") (committed rs))
             plain) );
    ]

(* ---- command line ---- *)

let () =
  let workload_name = ref "" and seed = ref (-1) and seconds = ref 10.0 in
  let trace = ref 0 and workdir = ref "." in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload_name, " workload name");
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " measuring budget (host s)");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer");
      ("--workdir", Arg.Set_string workdir, " directory for scratch files");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !seed < 0 then (prerr_endline "--seed is required"; exit 2);
  if !trace <> 0 && !trace <> 1 then (prerr_endline "--trace is 0 or 1"; exit 2);
  let w = workload ~workdir:!workdir !workload_name in
  let spec = w.spec in
  let traced_mode = !trace = 1 in
  Printf.printf "workload=%s seed=%d seconds=%g trace=%d\n%!" !workload_name
    !seed !seconds !trace;
  let input =
    Load.make_input ~seed:!seed ~rate:spec.Load.rate
      ~horizon_ms:(spec.Load.warmup_ms +. spec.Load.window_ms)
  in
  let rep ~traced =
    List.map
      (fun p -> run_protocol p spec input ~seed:!seed ~traced)
      w.protocols
  in
  let budget_ns = int_of_float (!seconds *. 1e9) in
  let t0 = Span.now_ns () in
  let plain = ref [] and traced = ref [] in
  (* [top_heap_words] is the process's high-water mark; later repetitions
     can raise it only through fragmentation, so it is read after the
     first one. *)
  let peak_heap_words = ref 0 and fingerprints = ref [] in
  let rec loop k =
    let is_traced = traced_mode && k mod 2 = 1 in
    let r = rep ~traced:is_traced in
    if k = 0 then peak_heap_words := (Gc.quick_stat ()).Gc.top_heap_words;
    (* Latencies are kept for the first repetition only; the others are
       compared through their fingerprint. *)
    fingerprints := fingerprint r :: !fingerprints;
    let r =
      if k = 0 then r
      else List.map (fun (x : Load.raw) -> { x with Load.lat = [||] }) r
    in
    if is_traced then traced := r :: !traced else plain := r :: !plain;
    let enough = !(if traced_mode then traced else plain) <> [] in
    if not (enough && Span.now_ns () - t0 >= budget_ns) then loop (k + 1)
  in
  loop 0;
  let plain = List.rev !plain and traced = List.rev !traced in
  let all = plain @ traced in
  let errors =
    List.concat_map (List.concat_map (fun (r : Load.raw) -> r.Load.errors)) all
  in
  let errors =
    if List.for_all (( = ) (List.hd !fingerprints)) !fingerprints then errors
    else "simulated results differ between repetitions of one seed" :: errors
  in
  let first = List.hd plain in
  let due = simsum first "due" and done_ = committed first in
  Printf.printf "repetitions: %d untraced, %d traced\n" (List.length plain)
    (List.length traced);
  List.iter (fun e -> Printf.printf "CHECK FAILED: %s\n" e) errors;
  let metrics =
    if traced_mode then per_layer ~spec ~plain ~traced
    else begin
      let m, lat = end_to_end ~peak_heap_words:!peak_heap_words plain in
      Printf.printf "latency samples: %d (due commands in the window)\n"
        lat.samples;
      m
    end
  in
  List.iter (fun (k, u, v) -> Printf.printf "%-40s %14.6g %s\n" k v u) metrics;
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0" in
  let body =
    String.concat ", "
      (List.map
         (fun (k, u, v) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" k (num v) u)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (errors = []) (int_of_float due)
    (int_of_float (due -. done_))
    body;
  exit (if errors = [] then 0 else 1)
