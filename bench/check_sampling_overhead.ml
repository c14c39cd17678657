(* Guards the sampled-tracing cost contract (lib/obs/sampling.mli): with the
   default binary sink and a 1-in-10 sampling policy on the data-path kinds,
   tracing a trace-dense workload must cost < 10% wall-clock over tracing
   off. This is the only place that cost is measured: wall-clock numbers
   are excluded from the baseline compare, so the gate lives here.

   Methodology: each round measures tracing-off and sampled-tracing
   back-to-back and takes their ratio, so slow machine phases (frequency
   scaling, noisy neighbours) cancel per round; the round medians absorb
   outliers. Because even the median jitters by a few percent on shared
   hardware, a failed attempt is retried: only a regression that fails
   every attempt fails the build.

   Run with: dune build @check-overhead *)

let threshold_pct = 10.0
let attempts = 3
let rounds = 5

let traced reps sampling =
  Obs.Trace.set_sampling sampling;
  Obs.Trace.set_enabled true;
  let w = Obs.Tracebin.writer ignore in
  let id = Obs.Trace.subscribe (Obs.Tracebin.write w) in
  let r = Workload.time_reps reps in
  Obs.Trace.unsubscribe id;
  Obs.Trace.set_enabled false;
  Obs.Trace.set_sampling None;
  r

let measure_pct () =
  let reps = Workload.calibrate_reps () in
  let ratios = ref [] in
  let checksum_off = ref 0 and checksum_on = ref 0 in
  for _ = 1 to rounds do
    Obs.Trace.set_enabled false;
    let off, c_off = Workload.time_reps reps in
    checksum_off := c_off;
    (* head:0 — measure the steady state, not the always-keep prefix. *)
    let sampled, c_on =
      traced reps (Some (Obs.Sampling.create ~head:0 ~rate:10 ()))
    in
    checksum_on := c_on;
    ratios := (sampled /. Float.max off 1e-9) :: !ratios
  done;
  if !checksum_off <> !checksum_on then begin
    Printf.printf
      "FAIL: sampled tracing changed the simulation (decided %d vs %d)\n"
      !checksum_off !checksum_on;
    exit 1
  end;
  let a = Array.of_list !ratios in
  Array.sort Float.compare a;
  100.0 *. (a.(Array.length a / 2) -. 1.0)

let () =
  let rec go attempt =
    let pct = measure_pct () in
    Printf.printf
      "sampled-tracing overhead:     %+.2f%% (median of %d paired rounds, \
       threshold %.0f%%, attempt %d/%d)\n%!"
      pct rounds threshold_pct attempt attempts;
    if pct < threshold_pct then
      print_string "OK: sampled binary tracing fits the <10% budget\n"
    else if attempt < attempts then go (attempt + 1)
    else begin
      Printf.printf
        "FAIL: sampled tracing costs more than %.0f%% in every attempt\n"
        threshold_pct;
      exit 1
    end
  in
  go 1
