(* opx: command-line driver for the Omni-Paxos reproduction experiments.

   Subcommands mirror the paper's evaluation:
     opx table1                           partial-connectivity matrix
     opx normal    [--wan] [--servers 5]  regular-execution throughput
     opx partition --scenario quorum-loss down-time under partial partitions
     opx chained                          chained-scenario decided counts
     opx reconfig  [--majority]           reconfiguration comparison
     opx trace     [--out t.trace]        traced scenario runs + invariants

   Every experiment subcommand also takes [--trace FILE] to record an event
   trace of the whole run — JSONL or the compact binary format, selected
   with [--trace-format] — and [--sample-rate K] to keep only 1 in K of the
   high-volume data-path events (see README "Trace format"). *)

open Cmdliner
module E = Rsm.Experiments

let pf = Printf.printf

(* Shared tracing options: [--trace FILE] runs the experiment with the
   tracer feeding a trace file, [--trace-format] picks the encoding and
   [--sample-rate]/[--sample-head] install emit-time sampling. *)
let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:"Record a trace of every event in the run to $(docv).")

let trace_format_conv =
  Arg.enum [ ("jsonl", Obs.Tracebin.Jsonl); ("bin", Obs.Tracebin.Bin) ]

let trace_format_arg =
  Arg.(
    value
    & opt trace_format_conv Obs.Tracebin.Jsonl
    & info [ "trace-format" ] ~docv:"FORMAT"
        ~doc:
          "Trace encoding: $(b,jsonl) (one JSON object per line) or \
           $(b,bin) (compact binary; ~an order of magnitude smaller, with \
           run metadata and sampling rates in the header).")

let sample_rate_arg =
  Arg.(
    value & opt int 1
    & info [ "sample-rate" ] ~docv:"K"
        ~doc:
          "Emit-time sampling: keep 1 in $(docv) of the high-volume \
           data-path events (proposed, accepted, batch_flush, send, \
           deliver; send/deliver pairs are kept or dropped together). \
           Faults, elections and invariant inputs are never sampled. 1 \
           (the default) keeps everything.")

let sample_head_arg =
  Arg.(
    value & opt int 1000
    & info [ "sample-head" ] ~docv:"N"
        ~doc:
          "With --sample-rate: always keep the first $(docv) events of \
           each sampled kind before thinning.")

type tracing = {
  t_file : string option;
  t_format : Obs.Tracebin.format;
  t_rate : int;
  t_head : int;
}

let tracing_term =
  let mk t_file t_format t_rate t_head = { t_file; t_format; t_rate; t_head } in
  Term.(
    const mk $ trace_arg $ trace_format_arg $ sample_rate_arg
    $ sample_head_arg)

(* A trace path that cannot be written is a usage error: report it and exit
   2 before anything is simulated, not with an uncaught [Sys_error] after. *)
let check_writable file =
  match open_out_gen [ Open_wronly; Open_creat ] 0o644 file with
  | oc -> close_out oc
  | exception Sys_error e ->
      (* [e] reads "FILE: reason". *)
      Printf.eprintf "opx: cannot write %s\n" e;
      exit 2

let with_tracing tr f =
  Option.iter check_writable tr.t_file;
  let prev = Obs.Trace.sampling () in
  if tr.t_rate > 1 then
    Obs.Trace.set_sampling
      (Some (Obs.Sampling.create ~head:tr.t_head ~rate:tr.t_rate ()));
  let finish () = Obs.Trace.set_sampling prev in
  match
    match tr.t_file with
    | None -> f ()
    | Some file -> Obs.Trace.with_file ~file ~format:tr.t_format f
  with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

(* Shared [--health] flag: run the experiment with the online liveness
   monitor subscribed as a tracer sink, and print its alerts, partition
   suspects and recovery episodes afterwards. *)
let health_arg =
  Arg.(
    value & flag
    & info [ "health" ]
        ~doc:
          "Run the online health monitor (stall watchdog, leader-churn \
           meter, partition-suspect matrix, recovery episodes) over the \
           run's event stream and print its findings.")

let print_health h =
  pf "\n-- health --\n";
  let alerts = Obs.Health.alerts h in
  if List.is_empty alerts then pf "no alerts\n"
  else
    List.iter
      (fun (a : Obs.Health.alert) ->
        pf "%12.3f  %s  %s\n" a.at
          (match a.edge with
          | Obs.Health.Trigger -> "TRIGGER"
          | Obs.Health.Clear -> "CLEAR  ")
          a.what)
      alerts;
  (match Obs.Health.suspects h with
  | [] -> ()
  | sus ->
      pf "open partition suspects:";
      List.iter (fun (s, d) -> pf " %d->%d" s d) sus;
      pf "\n");
  List.iter
    (fun (r : Obs.Health.recovery) ->
      let rel = function
        | Some v -> Printf.sprintf "+%.3f ms" (v -. r.Obs.Health.fault_at)
        | None -> "-"
      in
      pf "recovery: fault %s at %.3f (%d fault events): detect %s, decide %s\n"
        r.Obs.Health.fault r.Obs.Health.fault_at r.Obs.Health.faults
        (rel r.Obs.Health.detect_at)
        (rel r.Obs.Health.decide_at))
    (Obs.Health.recoveries h)

let with_health ~n ~election_timeout_ms health f =
  if not health then f ()
  else begin
    let h =
      Obs.Health.create (Obs.Health.default_config ~n ~election_timeout_ms)
    in
    let id = Obs.Trace.subscribe (Obs.Health.observe h) in
    let was = Obs.Trace.is_enabled () in
    Obs.Trace.set_enabled true;
    let finish () =
      Obs.Trace.unsubscribe id;
      Obs.Trace.set_enabled was
    in
    let v =
      try f ()
      with e ->
        finish ();
        raise e
    in
    finish ();
    print_health h;
    v
  end

(* ---------------- table1 ---------------- *)

let table1_cmd =
  let run tracing health seeds partition_s =
    with_tracing tracing @@ fun () ->
    with_health ~n:5 ~election_timeout_ms:50.0 health @@ fun () ->
    let rows =
      E.table1 ~seeds:(List.init seeds (fun i -> i + 1))
        ~partition_ms:(float_of_int partition_s *. 1000.0) ()
    in
    pf "%-14s %-12s %-12s %-8s\n" "protocol" "quorum-loss" "constrained"
      "chained";
    List.iter
      (fun (r : E.table1_row) ->
        let m b = if b then "yes" else "NO" in
        pf "%-14s %-12s %-12s %-8s\n" r.t1_protocol (m r.t1_quorum_loss)
          (m r.t1_constrained) (m r.t1_chained))
      rows
  in
  let seeds =
    Arg.(value & opt int 2 & info [ "seeds" ] ~doc:"Number of seeded runs.")
  in
  let partition_s =
    Arg.(
      value & opt int 30
      & info [ "partition-s" ] ~doc:"Partition duration in seconds.")
  in
  Cmd.v
    (Cmd.info "table1" ~doc:"Reproduce Table 1 (stable-progress matrix)")
    Term.(const run $ tracing_term $ health_arg $ seeds $ partition_s)

(* ---------------- normal ---------------- *)

let normal_cmd =
  let run tracing health wan servers cp duration_s seeds =
    with_tracing tracing @@ fun () ->
    with_health ~n:servers ~election_timeout_ms:50.0 health @@ fun () ->
    let rows =
      E.normal_execution
        ~seeds:(List.init seeds (fun i -> i + 1))
        ~duration_ms:(float_of_int duration_s *. 1000.0)
        ~cps:[ cp ] ~cluster_sizes:[ servers ] ~settings:[ wan ] ()
    in
    pf "%-4s %-3s %-7s %-14s %12s %10s\n" "set" "n" "CP" "protocol"
      "tput(req/s)" "+/-CI";
    List.iter
      (fun (r : E.throughput_point) ->
        pf "%-4s %-3d %-7d %-14s %12.0f %10.0f\n" r.tp_setting r.tp_n r.tp_cp
          r.tp_protocol r.tp_mean r.tp_ci)
      rows
  in
  let wan = Arg.(value & flag & info [ "wan" ] ~doc:"WAN latencies.") in
  let servers =
    Arg.(value & opt int 3 & info [ "servers" ] ~doc:"Cluster size.")
  in
  let cp =
    Arg.(
      value & opt int 5000
      & info [ "cp" ] ~doc:"Concurrent proposals kept outstanding.")
  in
  let duration_s =
    Arg.(
      value & opt int 4
      & info [ "duration-s" ] ~doc:"Measured duration in seconds.")
  in
  let seeds =
    Arg.(value & opt int 3 & info [ "seeds" ] ~doc:"Number of seeded runs.")
  in
  Cmd.v
    (Cmd.info "normal" ~doc:"Regular execution throughput (Figure 7)")
    Term.(
      const run $ tracing_term $ health_arg $ wan $ servers $ cp
      $ duration_s $ seeds)

(* ---------------- partition ---------------- *)

let scenario_conv =
  Arg.enum
    [ ("quorum-loss", E.Quorum_loss); ("constrained", E.Constrained) ]

let partition_cmd =
  let run tracing health kind timeout_ms partition_s seeds =
    with_tracing tracing @@ fun () ->
    with_health ~n:5 ~election_timeout_ms:(float_of_int timeout_ms) health
    @@ fun () ->
    let rows =
      E.partition_downtime
        ~seeds:(List.init seeds (fun i -> i + 1))
        ~timeouts_ms:[ float_of_int timeout_ms ]
        ~partition_ms:(float_of_int partition_s *. 1000.0)
        ~kind ()
    in
    pf "%-11s %-14s %14s %10s %10s\n" "timeout(ms)" "protocol" "downtime(ms)"
      "+/-CI" "ldr-chg";
    List.iter
      (fun (r : E.downtime_point) ->
        pf "%-11.0f %-14s %14s %10.0f %10.1f\n" r.dt_timeout_ms r.dt_protocol
          (if r.dt_deadlocked then "DEADLOCK"
           else Printf.sprintf "%.0f" r.dt_downtime_ms)
          r.dt_ci r.dt_leader_changes)
      rows
  in
  let kind =
    Arg.(
      value
      & opt scenario_conv E.Quorum_loss
      & info [ "scenario" ] ~doc:"quorum-loss or constrained.")
  in
  let timeout_ms =
    Arg.(
      value & opt int 50 & info [ "timeout-ms" ] ~doc:"Election timeout (ms).")
  in
  let partition_s =
    Arg.(
      value & opt int 60
      & info [ "partition-s" ] ~doc:"Partition duration in seconds.")
  in
  let seeds =
    Arg.(value & opt int 3 & info [ "seeds" ] ~doc:"Number of seeded runs.")
  in
  Cmd.v
    (Cmd.info "partition"
       ~doc:"Down-time under partial partitions (Figures 8a/8b)")
    Term.(
      const run $ tracing_term $ health_arg $ kind $ timeout_ms
      $ partition_s $ seeds)

(* ---------------- chained ---------------- *)

let chained_cmd =
  let run tracing health duration_s seeds =
    with_tracing tracing @@ fun () ->
    with_health ~n:3 ~election_timeout_ms:50.0 health @@ fun () ->
    let rows =
      E.chained_throughput
        ~seeds:(List.init seeds (fun i -> i + 1))
        ~durations_ms:[ float_of_int duration_s *. 1000.0 ]
        ()
    in
    pf "%-13s %-14s %14s %10s %10s\n" "duration(s)" "protocol" "decided"
      "+/-CI" "ldr-chg";
    List.iter
      (fun (r : E.chained_point) ->
        pf "%-13.0f %-14s %14.0f %10.0f %10.1f\n"
          (r.ch_duration_ms /. 1000.0)
          r.ch_protocol r.ch_decided r.ch_ci r.ch_leader_changes)
      rows
  in
  let duration_s =
    Arg.(
      value & opt int 60
      & info [ "duration-s" ] ~doc:"Partition duration in seconds.")
  in
  let seeds =
    Arg.(value & opt int 2 & info [ "seeds" ] ~doc:"Number of seeded runs.")
  in
  Cmd.v
    (Cmd.info "chained" ~doc:"Chained-scenario decided requests (Figure 8c)")
    Term.(const run $ tracing_term $ health_arg $ duration_s $ seeds)

(* ---------------- reconfig ---------------- *)

let reconfig_cmd =
  let run tracing majority cp preload total_s =
    with_tracing tracing @@ fun () ->
    let params, omni, raft =
      E.reconfiguration ~preload ~cp ~replace_majority:majority
        ~total_ms:(float_of_int total_s *. 1000.0)
        ()
    in
    let show name (r : Rsm.Reconfig.result) =
      pf "\n%s:\n" name;
      (match r.migration_done_at with
      | Some t ->
          pf "  reconfiguration period: %.1fs\n"
            ((t -. params.reconfigure_at) /. 1000.0)
      | None -> pf "  reconfiguration did not complete\n");
      pf "  decided: %d  leader changes: %d\n" r.decided r.leader_changes;
      pf "  throughput per 5s window (req/s):\n   ";
      List.iter
        (fun (t, d) -> pf " %.0fs:%d" (t /. 1000.0) (d / 5))
        (Rsm.Metrics.Series.windowed r.series ~from:0.0 ~until:params.total_ms
           ~window:5000.0);
      pf "\n"
    in
    show "Omni-Paxos" omni;
    show "Raft" raft
  in
  let majority =
    Arg.(
      value & flag
      & info [ "majority" ] ~doc:"Replace a majority (3 of 5) of servers.")
  in
  let cp =
    Arg.(value & opt int 500 & info [ "cp" ] ~doc:"Concurrent proposals.")
  in
  let preload =
    Arg.(
      value & opt int 2_000_000
      & info [ "preload" ] ~doc:"Entries in the initial log.")
  in
  let total_s =
    Arg.(
      value & opt int 120 & info [ "total-s" ] ~doc:"Run length in seconds.")
  in
  Cmd.v
    (Cmd.info "reconfig" ~doc:"Reconfiguration comparison (Figure 9)")
    Term.(const run $ tracing_term $ majority $ cp $ preload $ total_s)

(* ---------------- trace ---------------- *)

let proto_conv =
  Arg.enum
    [
      ("omni", E.omni_runner);
      ("raft", E.raft_runner);
      ("raft-pvcq", E.raft_pvcq_runner);
      ("multipaxos", E.multipaxos_runner);
      ("vr", E.vr_runner);
    ]

let analyze_cmd =
  let run file json timeout_ms =
    let health =
      Option.map
        (fun ms ->
          (* Cluster size is inferred from the trace, so the config is
             built with a placeholder n and resized by the analyzer. *)
          Obs.Health.default_config ~n:0 ~election_timeout_ms:ms)
        timeout_ms
    in
    match
      if String.equal file "-" then Obs.Analyze.of_channel ?health stdin
      else Obs.Analyze.of_file ?health file
    with
    | Error e ->
        Printf.eprintf "opx trace analyze: %s\n" e;
        exit 2
    | Ok r ->
        if json then
          print_endline (Bench_report.Json.to_string (Obs.Analyze.to_json r))
        else print_string (Obs.Analyze.to_string r)
  in
  let file =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE"
          ~doc:
            "Trace file (as written by --trace or opx trace --out), JSONL \
             or binary — the format is sniffed from the first bytes. Pass \
             $(b,-) to stream from stdin, e.g. as a live pipe from a \
             traced run.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the report as JSON instead of text.")
  in
  let timeout_ms =
    Arg.(
      value
      & opt (some float) None
      & info [ "timeout-ms" ]
          ~doc:
            "Election timeout used to scale the health detectors (default \
             50 ms: stall at 4 timeouts, churn window of 20).")
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Streaming bounded-memory analysis of a recorded trace (JSONL or \
          binary; file or stdin): leader timelines, stall windows, \
          commit-latency percentiles, causal critical paths, health alerts \
          and invariants")
    Term.(const run $ file $ json $ timeout_ms)

let convert_cmd =
  let run src dst to_format =
    let with_src f =
      if String.equal src "-" then f (Obs.Tracebin.of_channel stdin)
      else begin
        let ic = try open_in_bin src with Sys_error e -> (Printf.eprintf "opx trace convert: %s\n" e; exit 2) in
        Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
        f (Obs.Tracebin.of_channel ic)
      end
    in
    let res =
      try
        with_src @@ fun s ->
        let target =
          (* Default: flip whatever the source is. *)
          match to_format with
          | Some f -> f
          | None -> (
              match Obs.Tracebin.source_format s with
              | Obs.Tracebin.Jsonl -> Obs.Tracebin.Bin
              | Obs.Tracebin.Bin -> Obs.Tracebin.Jsonl)
        in
        let oc = open_out_bin dst in
        Fun.protect ~finally:(fun () -> close_out_noerr oc) @@ fun () ->
        let n = ref 0 in
        let r =
          match target with
          | Obs.Tracebin.Bin ->
              let w =
                Obs.Tracebin.writer ~meta:(Obs.Tracebin.meta s)
                  (output_string oc)
              in
              let r =
                Obs.Tracebin.iter s (fun e ->
                    Obs.Tracebin.write w e;
                    incr n)
              in
              Obs.Tracebin.flush w;
              r
          | Obs.Tracebin.Jsonl ->
              Obs.Tracebin.iter s (fun e ->
                  output_string oc (Obs.Event.to_json e);
                  output_char oc '\n';
                  incr n)
        in
        Result.map
          (fun () ->
            ( !n,
              (match Obs.Tracebin.source_format s with
              | Obs.Tracebin.Jsonl -> "jsonl"
              | Obs.Tracebin.Bin -> "bin"),
              match target with
              | Obs.Tracebin.Jsonl -> "jsonl"
              | Obs.Tracebin.Bin -> "bin" ))
          r
      with
      | Obs.Tracebin.Decode_error e -> Error e
      | Sys_error e -> Error e
    in
    match res with
    | Error e ->
        Printf.eprintf "opx trace convert: %s\n" e;
        exit 2
    | Ok (n, from_fmt, to_fmt) ->
        pf "converted %d events (%s -> %s) to %s\n" n from_fmt to_fmt dst
  in
  let src =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"SRC"
          ~doc:
            "Input trace, JSONL or binary (sniffed). Pass $(b,-) for \
             stdin.")
  in
  let dst =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"DST" ~doc:"Output trace file.")
  in
  let to_format =
    Arg.(
      value
      & opt (some trace_format_conv) None
      & info [ "to" ] ~docv:"FORMAT"
          ~doc:
            "Target encoding ($(b,jsonl) or $(b,bin)). Defaults to the \
             opposite of the input's format. Header metadata (run \
             parameters, sampling rates) is carried across bin->bin; JSONL \
             has no header, so jsonl targets drop it.")
  in
  Cmd.v
    (Cmd.info "convert"
       ~doc:
         "Convert a trace between the JSONL and compact binary encodings \
          (either direction), streaming in constant memory")
    Term.(const run $ src $ dst $ to_format)

let trace_run_cmd =
  let run pr out format seed servers partition_s cp =
    Option.iter check_writable out;
    let runs =
      E.traced_scenarios ~pr ~seed ~n:servers
        ~partition_ms:(float_of_int partition_s *. 1000.0)
        ~cp ()
    in
    (match out with
    | None -> ()
    | Some file ->
        let oc = open_out_bin file in
        let each f = List.iter (fun (tr : E.traced_run) -> List.iter f tr.E.tr_events) runs in
        (match format with
        | Obs.Tracebin.Jsonl ->
            each (fun e ->
                output_string oc (Obs.Event.to_json e);
                output_char oc '\n')
        | Obs.Tracebin.Bin ->
            let w =
              Obs.Tracebin.writer ~meta:(Obs.Trace.run_meta ())
                (output_string oc)
            in
            each (Obs.Tracebin.write w);
            Obs.Tracebin.flush w);
        close_out oc;
        pf "wrote %d events to %s\n"
          (List.fold_left
             (fun a (tr : E.traced_run) -> a + List.length tr.E.tr_events)
             0 runs)
          file);
    let failed = ref false in
    List.iter
      (fun (tr : E.traced_run) ->
        let r =
          Obs.Analyze.run ~ring_dropped:tr.E.tr_dropped
            ~ring_dropped_by_kind:tr.E.tr_dropped_by_kind tr.E.tr_events
        in
        pf "== %s: %s (downtime %.0f ms, decided %d) ==\n" pr.E.pr_name
          (E.scenario_name tr.E.tr_kind)
          tr.E.tr_downtime_ms tr.E.tr_decided;
        Format.printf "%a@." Obs.Analyze.pp r;
        let violated (_, v) = Result.is_error v in
        if List.exists violated r.Obs.Analyze.invariants then failed := true)
      runs;
    if !failed then exit 1
  in
  let proto =
    Arg.(
      value
      & opt proto_conv E.omni_runner
      & info [ "protocol" ]
          ~doc:"Protocol to trace: omni, raft, raft-pvcq, multipaxos or vr.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:
            "Write the recorded events of all three runs to $(docv), in \
             the encoding chosen by $(b,--trace-format).")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Run seed.") in
  let servers =
    Arg.(value & opt int 5 & info [ "servers" ] ~doc:"Cluster size.")
  in
  let partition_s =
    Arg.(
      value & opt int 5
      & info [ "partition-s" ] ~doc:"Partition duration in seconds.")
  in
  let cp =
    Arg.(value & opt int 50 & info [ "cp" ] ~doc:"Concurrent proposals.")
  in
  Term.(
    const run $ proto $ out $ trace_format_arg $ seed $ servers
    $ partition_s $ cp)

let trace_cmd =
  Cmd.group
    ~default:trace_run_cmd
    (Cmd.info "trace"
       ~doc:
         "Run the three partial-connectivity scenarios with tracing on and \
          print the trace analysis of each (non-zero exit on an invariant \
          violation); analyze a recorded trace ($(b,opx trace analyze \
          FILE), $(b,-) for stdin); or convert between encodings ($(b,opx \
          trace convert SRC DST))")
    [ analyze_cmd; convert_cmd ]

(* ---------------- chaos ---------------- *)

let chaos_cmd =
  let run proto episodes seed servers clients steps compaction trace
      trace_format =
    let runner =
      match Chaos.Campaign.find_runner proto with
      | Some r -> r
      | None ->
          Printf.eprintf "unknown protocol %S (try: %s)\n" proto
            (String.concat ", "
               (List.map
                  (fun r -> r.Chaos.Campaign.cr_name)
                  Chaos.Campaign.runners));
          exit 2
    in
    (* An unwritable trace path fails before the campaign. A file this check
       had to create is removed again when no failure is written to it. *)
    let created_trace =
      match trace with
      | None -> None
      | Some file ->
          let existed = Sys.file_exists file in
          check_writable file;
          if existed then None else Some file
    in
    let cfg =
      {
        Chaos.Campaign.default_config with
        n = servers;
        clients;
        steps;
        compaction =
          (if compaction > 0 then Omnipaxos.Compaction.make ~retain:4 compaction
           else Omnipaxos.Compaction.disabled);
      }
    in
    let s = runner.Chaos.Campaign.cr_run cfg ~seed ~episodes in
    Format.printf "%a@?" Chaos.Campaign.pp_summary s;
    match s.Chaos.Campaign.s_failures with
    | [] -> Option.iter Sys.remove created_trace
    | f :: _ ->
        (match trace with
        | None -> ()
        | Some file ->
            (* Replay the first failure's minimal schedule with the tracer
               on, so the violating run can be inspected event by event. *)
            Chaos.Campaign.write_failure_trace ~file ~format:trace_format
              runner cfg f;
            pf "trace of minimal failing schedule (seed %d) written to %s\n"
              f.Chaos.Campaign.f_seed file);
        exit 1
  in
  let proto =
    Arg.(
      value & opt string "omni"
      & info [ "protocol" ]
          ~doc:
            "Campaign to run: omni, raft, raft-pvcq, multipaxos, vr, or \
             faulty-raft (a deliberately broken stale-read wrapper).")
  in
  let episodes =
    Arg.(value & opt int 20 & info [ "episodes" ] ~doc:"Seeded episodes.")
  in
  let seed =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~doc:"Base seed; episode $(i,i) uses seed+$(i,i).")
  in
  let servers =
    Arg.(value & opt int 3 & info [ "servers" ] ~doc:"Cluster size.")
  in
  let clients =
    Arg.(value & opt int 3 & info [ "clients" ] ~doc:"Concurrent KV clients.")
  in
  let steps =
    Arg.(
      value & opt int 12
      & info [ "steps" ] ~doc:"Nemesis fault opcodes per episode.")
  in
  let compaction =
    Arg.(
      value & opt int 0
      & info [ "compaction" ] ~docv:"N"
          ~doc:
            "Enable snapshot/compaction on every server with \
             snapshot_interval $(docv) (retain 4); 0 (the default) leaves \
             compaction off, matching prior campaign seeds byte for byte.")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "On failure, replay the first minimal failing schedule and \
             write its event trace to $(docv) (encoding chosen by \
             $(b,--trace-format)).")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Seeded chaos campaign: random fault schedules against concurrent \
          KV clients, histories checked for linearizability; failing \
          schedules are shrunk to a minimal fault list (non-zero exit on a \
          violation)")
    Term.(
      const run $ proto $ episodes $ seed $ servers $ clients $ steps
      $ compaction $ trace $ trace_format_arg)

(* ---------------- metrics / top ---------------- *)

module T = Rsm.Top

let top_proto_conv = Arg.enum T.runners

let top_scenario_conv =
  Arg.enum [ ("normal", T.Normal); ("chained", T.Chained) ]

let servers_arg =
  Arg.(value & opt int 5 & info [ "servers" ] ~doc:"Cluster size.")

let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Run seed.")

let cp_arg =
  Arg.(
    value & opt int 100
    & info [ "cp" ] ~doc:"Concurrent proposals kept outstanding.")

let duration_s_arg =
  Arg.(
    value & opt int 4 & info [ "duration-s" ] ~doc:"Run length in seconds.")

let interval_ms_arg =
  Arg.(
    value & opt int 250
    & info [ "interval-ms" ] ~doc:"Sampling interval in simulated ms.")

let top_cfg ~servers ~seed =
  { Rsm.Cluster.default_config with Rsm.Cluster.n = servers; seed }

let metrics_cmd =
  let run pr servers seed cp duration_s interval_ms snapshots profile
      profile_json =
    let cfg = top_cfg ~servers ~seed in
    let snap_oc = Option.map open_out snapshots in
    let on_sample =
      Option.map
        (fun oc ~time ->
          output_string oc
            (Bench_report.Json.to_compact_string
               (Obs.Metric.Registry.snapshot_json Obs.Metric.Registry.default
                  ~time));
          output_char oc '\n')
        snap_oc
    in
    let r =
      pr.T.tr_run ?on_sample ~cfg ~cp
        ~duration_ms:(float_of_int duration_s *. 1000.0)
        ~interval_ms:(float_of_int interval_ms)
        ()
    in
    Option.iter close_out snap_oc;
    print_string
      (Obs.Metric.Registry.render_exposition Obs.Metric.Registry.default);
    (match snapshots with
    | Some f -> Printf.eprintf "snapshot series written to %s\n" f
    | None -> ());
    if profile then print_string (Obs.Profile.to_string r.T.profile);
    if profile_json then
      print_endline (Bench_report.Json.to_string (Obs.Profile.to_json r.T.profile))
  in
  let proto =
    Arg.(
      value & opt top_proto_conv T.omni
      & info [ "protocol" ]
          ~doc:"Protocol to run: omni, raft, raft-pvcq, multipaxos or vr.")
  in
  let snapshots =
    Arg.(
      value
      & opt (some string) None
      & info [ "snapshots" ] ~docv:"FILE"
          ~doc:
            "Also write a JSONL time series to $(docv): one registry \
             snapshot per sampling interval.")
  in
  let profile =
    Arg.(
      value & flag
      & info [ "profile" ]
          ~doc:"Also print the attribution profile (text) after the run.")
  in
  let profile_json =
    Arg.(
      value & flag
      & info [ "profile-json" ]
          ~doc:"Also print the attribution profile as JSON after the run.")
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Run a seeded workload and print every registered metric in \
          Prometheus-style exposition format; optionally record a JSONL \
          snapshot series and the resource-attribution profile")
    Term.(
      const run $ proto $ servers_arg $ seed_arg $ cp_arg $ duration_s_arg
      $ interval_ms_arg $ snapshots $ profile $ profile_json)

let top_cmd =
  let run pr servers seed cp duration_s interval_ms scenario once wall topk =
    let cfg = top_cfg ~servers ~seed in
    let duration_ms = float_of_int duration_s *. 1000.0 in
    let interval_ms = float_of_int interval_ms in
    if once then begin
      (* Deterministic snapshot mode for tests: run the same seed twice and
         report whether the rendered dashboards are byte-identical. *)
      let go () =
        (pr.T.tr_run ~wall:false ~top:topk ~scenario ~cfg ~cp ~duration_ms
           ~interval_ms ())
          .T.final_frame
      in
      let a = go () in
      let b = go () in
      print_string a;
      pf "deterministic: %b\n" (String.equal a b)
    end
    else begin
      let on_frame frame =
        (* Repaint in place: cursor home + clear-to-end. *)
        print_string "\027[H\027[J";
        print_string frame;
        flush stdout
      in
      let r =
        pr.T.tr_run ~wall ~top:topk ~scenario ~on_frame ~cfg ~cp ~duration_ms
          ~interval_ms ()
      in
      print_string "\027[H\027[J";
      print_string r.T.final_frame
    end
  in
  let proto =
    Arg.(
      value & opt top_proto_conv T.omni
      & info [ "protocol" ]
          ~doc:"Protocol to run: omni, raft, raft-pvcq, multipaxos or vr.")
  in
  let scenario =
    Arg.(
      value & opt top_scenario_conv T.Normal
      & info [ "scenario" ]
          ~doc:
            "normal, or chained (a chain partition over the middle of the \
             run).")
  in
  let once =
    Arg.(
      value & flag
      & info [ "once" ]
          ~doc:
            "Print a single deterministic summary frame instead of live \
             repaints, run the seed twice, and report $(b,deterministic: \
             true/false).")
  in
  let wall =
    Arg.(
      value & flag
      & info [ "wall" ]
          ~doc:
            "Include the nondeterministic wall-clock and allocation columns \
             in the profiler tables (live mode only).")
  in
  let topk =
    Arg.(
      value & opt int 8
      & info [ "top" ] ~doc:"Rows in the profiler top-K table.")
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live terminal dashboard over a seeded run: throughput and \
          commit-latency gauges, per-node queue depths, health monitor \
          status and the profiler's top components; $(b,--once) prints one \
          deterministic snapshot for tests")
    Term.(
      const run $ proto $ servers_arg $ seed_arg $ cp_arg $ duration_s_arg
      $ interval_ms_arg $ scenario $ once $ wall $ topk)

(* ---------------- mcheck ---------------- *)

let mcheck_cmd =
  let run competing drops proposals max_states =
    let leader_events =
      if competing then [ (0, (1, 0)); (1, (2, 1)) ] else [ (0, (1, 0)) ]
    in
    let proposals = List.init proposals (fun i -> (i mod 2, 11 * (i + 1))) in
    let r =
      Mcheck.Explore.run
        { leader_events; proposals; allow_drops = drops; max_states }
    in
    pf "states explored: %d%s\n" r.states
      (if r.truncated then " (truncated at the state bound)" else " (exhaustive)");
    match r.violation with
    | Some v ->
        pf "VIOLATION: %s\n" v;
        exit 1
    | None -> pf "no SC1-SC3 violation in any reachable state\n"
  in
  let competing =
    Arg.(
      value & flag
      & info [ "competing-leaders" ]
          ~doc:"Two competing leader events instead of one.")
  in
  let drops = Arg.(value & flag & info [ "drops" ] ~doc:"Allow message drops.") in
  let proposals =
    Arg.(value & opt int 2 & info [ "proposals" ] ~doc:"Number of proposals.")
  in
  let max_states =
    Arg.(
      value & opt int 1_000_000
      & info [ "max-states" ] ~doc:"State-count bound.")
  in
  Cmd.v
    (Cmd.info "mcheck"
       ~doc:
         "Bounded model checking of the Sequence Paxos specification \
          (SC1-SC3 in every reachable state)")
    Term.(const run $ competing $ drops $ proposals $ max_states)

let () =
  let doc = "Omni-Paxos reproduction experiments" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "opx" ~doc)
          [
            table1_cmd;
            normal_cmd;
            partition_cmd;
            chained_cmd;
            reconfig_cmd;
            trace_cmd;
            metrics_cmd;
            top_cmd;
            chaos_cmd;
            mcheck_cmd;
          ]))
