(* exact-batch: the paper's headline path.  The LOCAL JVV exact sampler
   ([Jvv.run_local], Theorem 4.2 compiled through Lemma 3.1) with the
   ball oracle at t = 2, on the hardcore model with lambda = 0.5 on a 4x4
   grid (a 5x5 grid allows only ~750 trials in a 20 s run, too few for a
   steady p99), run in batches through [Par.run_trials_timed]; accepted
   samples stream into [Empirical.Sketched]. *)

open Ls_core
open Common
module Par = Ls_par.Par
module Engine = Ls_serve.Engine
module Sketched = Ls_dist.Empirical.Sketched
module Metrics = Ls_obs.Metrics

let graph_spec = "grid:4x4"
let model_spec = "hardcore:0.5"
let t = 2
(* One domain.  At two, on a 2-vCPU virtual machine, a vCPU the host
   takes away stalls the other domain at the next minor collection, and
   the p99 trial time moved threefold between runs. *)
let domains = 1
let batch = 8

(* The deterministic counts cover exactly this many leading trials. *)
let count_ops = 64

(* Goodness of fit: every vertex's occupancy among accepted samples within
   this many binomial standard deviations of its exact marginal (16
   vertices: a false alarm has probability below 1.1e-4 per run). *)
let z_bound = 4.5

type trial = {
  y : int array;
  accepted : bool;
  rounds : int;
  clamped : int;
  error : string option;
  rc : Span.t option;
}

let run ~seed ~seconds ~traced =
  Par.set_domains domains;
  let graph_times = ref [] in
  let setup () =
    Par.quiesce ();
    let t0 = Report.now () in
    let g = ok_exn "graph" (Engine.parse_graph (Rng.create seed) graph_spec) in
    graph_times := (Report.now () -. t0) :: !graph_times;
    let m = ok_exn "model" (Engine.parse_model g model_spec) in
    let inst = Instance.unpinned m.Engine.spec in
    let base = Inference.ssm_oracle ~t inst in
    let oracle = wrap_oracle base in
    let epsilon = Jvv.theory_epsilon inst in
    (* Warm-up: trials on every domain spin the pool up.  Several per
       domain, so the set-up time does not hang on one trial's luck. *)
    ignore
      (Par.run_trials ~n:(8 * domains) ~seed:warm_seed (fun r ->
           Jvv.run_local oracle ~epsilon inst ~seed:(Rng.bits64 r)));
    (g, inst, base, oracle, epsilon)
  in
  let setup_s, (g, inst, base, oracle, epsilon) = Report.setup_median 9 setup in
  let n = Instance.n inst in
  (* Per-trial seed -> global trial index, so a traced trial can tag its
     spans with its op id (Par hands the trial only its stream). *)
  let batch_seed k = Splitmix.mix64 (Int64.add seed (Int64.of_int (7919 * (k + 1)))) in
  let index_of_batch k =
    let tbl = Hashtbl.create batch in
    Array.iteri
      (fun i r -> Hashtbl.replace tbl (Rng.bits64 (Rng.copy r)) ((k * batch) + i))
      (Rng.streams (batch_seed k) batch);
    tbl
  in
  let trial ~traced tbl rng =
    let s = Rng.bits64 rng in
    let index = Hashtbl.find tbl s in
    let rc =
      if traced then begin
        let r = Span.create () in
        Span.set_op r index;
        Some r
      end
      else None
    in
    Domain.DLS.set Span.current rc;
    let res =
      try
        Ok
          (Span.maybe rc Span.Op (fun () ->
               Span.maybe rc Span.Core (fun () -> Jvv.run_local oracle ~epsilon inst ~seed:s)))
      with e -> Error (Printexc.to_string e)
    in
    Domain.DLS.set Span.current None;
    match res with
    | Ok (r, st) ->
        {
          y = r.Jvv.y;
          accepted = r.Jvv.success;
          rounds = st.Ls_local.Scheduler.rounds;
          clamped = r.Jvv.clamped;
          error = None;
          rc;
        }
    | Error e -> { y = [||]; accepted = false; rounds = 0; clamped = 0; error = Some e; rc }
  in
  let sketch = Sketched.create ~seed () in
  let occupancy = Array.make n 0 in
  let main_rc = if traced then Some (Span.create ()) else None in
  let trial_rc = Span.create () in
  let times = ref [] in
  let trials = ref 0 and accepted = ref 0 and failed = ref 0 and clamps = ref 0 in
  let infeasible = ref 0 and errors = ref [] in
  let prefix_rounds = ref 0 and prefix_accepted = ref 0 in
  let prefix_calls = ref 0 and prefix_metrics = ref Metrics.empty in
  let sum_trial = ref 0. and sum_wall = ref 0. and chunks = ref [] in
  let traced_t = ref 0. and traced_n = ref 0 and plain_t = ref 0. and plain_n = ref 0 in
  let prefix_batches = count_ops / batch in
  if traced then Metrics.reset ();
  let gc0 = Report.gc_now () in
  let t_start = Report.now () in
  let k = ref 0 in
  (* A traced run also needs a few alternating rounds after the prefix. *)
  while Report.now () -. t_start < seconds || !trials < count_ops || (traced && !k < prefix_batches + 8) do
    (* Traced runs trace the counted prefix, then alternate traced and
       untraced batches so their difference measures the tracing cost. *)
    let in_prefix = !k < prefix_batches in
    let traced_batch = traced && (in_prefix || (!k - prefix_batches) mod 2 = 0) in
    Metrics.set_enabled traced_batch;
    let tbl = index_of_batch !k in
    let results, timing =
      Par.run_trials_timed ~n:batch ~seed:(batch_seed !k) (trial ~traced:traced_batch tbl)
    in
    Metrics.set_enabled false;
    let per_trial = Array.fold_left ( +. ) 0. timing.Par.per_trial in
    sum_trial := !sum_trial +. per_trial;
    sum_wall := !sum_wall +. timing.Par.wall;
    chunks := (batch, timing.Par.wall) :: !chunks;
    if traced && not in_prefix then
      if traced_batch then begin
        traced_t := !traced_t +. per_trial;
        traced_n := !traced_n + batch
      end
      else begin
        plain_t := !plain_t +. per_trial;
        plain_n := !plain_n + batch
      end;
    times := timing.Par.per_trial :: !times;
    Array.iter
      (fun tr ->
        incr trials;
        (match tr.rc with Some r -> Span.merge_into trial_rc r | None -> ());
        match tr.error with
        | Some e ->
            incr failed;
            errors := e :: !errors
        | None ->
            clamps := !clamps + tr.clamped;
            if in_prefix then prefix_rounds := !prefix_rounds + tr.rounds;
            if tr.accepted then begin
              if not (independent g tr.y) then begin
                incr failed;
                incr infeasible
              end
              else begin
                incr accepted;
                if in_prefix then incr prefix_accepted;
                Array.iteri (fun v c -> if c = 1 then occupancy.(v) <- occupancy.(v) + 1) tr.y;
                (match main_rc with Some r -> Span.set_op r (!trials - 1) | None -> ());
                Span.maybe main_rc Span.Sketch (fun () -> Sketched.add sketch tr.y)
              end
            end)
      results;
    if in_prefix && !k = prefix_batches - 1 then begin
      prefix_calls := Span.calls trial_rc Span.Gibbs;
      if traced then prefix_metrics := Metrics.snapshot ()
    end;
    incr k
  done;
  let gc = Report.gc_diff gc0 (Report.gc_now ()) in
  let rss = Report.peak_rss_mb () in
  (* Las Vegas exactness: per-vertex occupancy against Exact.marginal. *)
  let marginals = Array.init n (fun v -> Option.get (Exact.marginal inst v)) in
  let a = float_of_int !accepted in
  let max_z = ref 0. in
  Array.iteri
    (fun v d ->
      let p = Ls_dist.Dist.prob d 1 in
      let sd = sqrt (a *. p *. (1. -. p)) in
      let z = if sd > 0. then abs_float (float_of_int occupancy.(v) -. (a *. p)) /. sd else 0. in
      if z > !max_z then max_z := z)
    marginals;
  let gof_ok = !accepted > 0 && !max_z <= z_bound in
  let failed = if gof_ok then !failed else !trials in
  let times = Array.concat (List.rev !times) in
  let fi = float_of_int in
  let p50, p99 = Report.p50_p99 times in
  let trial_rate = Report.chunk_rate (Array.of_list (List.rev !chunks)) ~per:8 in
  let e2e =
    [
      ("setup_s", setup_s, "s");
      ("throughput_ops_s", trial_rate *. a /. fi !trials, "1/s");
      ("op_p50_ms", p50 *. 1e3, "ms");
      ("op_p99_ms", p99 *. 1e3, "ms");
      ("ok_frac", 1. -. (fi failed /. fi !trials), "frac");
      ("peak_rss_mb", rss, "MB");
      ("alloc_words_per_op", gc.Report.minor_words /. fi !trials, "words");
      ("rounds_per_op", fi !prefix_rounds /. fi count_ops, "count");
    ]
  in
  let layers =
    if not traced then []
    else begin
      let r = trial_rc in
      let main = Option.get main_rc in
      let gibbs_calls = fi (Span.calls r Span.Gibbs) in
      let core_calls = fi (Span.calls r Span.Core) in
      let m = !prefix_metrics in
      let adds = fi (Span.calls main Span.Sketch) in
      let weights = Array.to_list (Array.map (fun d -> (d : Ls_dist.Dist.t :> float array)) marginals) in
      Span.merge_into r main;
      [
        ("gibbs.infer_calls_per_op", fi !prefix_calls /. fi count_ops, "count");
        ("gibbs.infer_us_per_call", Report.ratio (Span.self_s r Span.Gibbs) gibbs_calls *. 1e6, "us");
        ("gibbs.infer_words_per_call", Report.ratio (Span.self_words r Span.Gibbs) gibbs_calls, "words");
        ("gibbs.infer_share", Report.ratio (Span.self_s r Span.Gibbs) r.Span.root_t, "frac");
        ("core.jvv.accept_frac", fi !prefix_accepted /. fi count_ops, "frac");
        ("core.jvv.self_ms_per_trial", Report.ratio (Span.self_s r Span.Core) core_calls *. 1e3, "ms");
        ("local.messages_per_op", fi m.Metrics.messages /. fi count_ops, "count");
        ("local.bits_per_message", Report.ratio (fi m.Metrics.bits) (fi m.Metrics.messages), "bits");
        ("local.plan_ms", plan_ms base inst ~seed, "ms");
        ("par.overhead_frac", 1. -. (!sum_trial /. (!sum_wall *. fi domains)), "frac");
        ("sketch.add_us", Report.ratio (Span.self_s r Span.Sketch) adds *. 1e6, "us");
        ("sketch.add_words", Report.ratio (Span.self_words r Span.Sketch) adds, "words");
        ("sketch.adds_per_op", fi !prefix_accepted /. fi count_ops, "count");
        ("graph.build_ms", Report.median (Array.of_list !graph_times) *. 1e3, "ms");
        ( "trace.overhead_frac",
          Report.ratio (!traced_t /. fi (max 1 !traced_n)) (!plain_t /. fi (max 1 !plain_n)) -. 1.,
          "frac" );
        ("trace.coverage_frac", Span.coverage r, "frac");
      ]
      @ Report.gc_metrics gc ~ops:!trials
      @ kernel_rows ~seed ~weights ~n
    end
  in
  {
    attempted = !trials;
    failed;
    checks =
      [
        ( "exactness",
          gof_ok,
          Printf.sprintf "max |z| = %.3f over %d vertices, %d accepted samples (bound %.1f)" !max_z n
            !accepted z_bound );
        ("feasible", !infeasible = 0, Printf.sprintf "%d infeasible accepted samples" !infeasible);
        ( "no_errors",
          !errors = [],
          match !errors with [] -> "0 trial errors" | e :: _ -> "trial error: " ^ e );
      ];
    e2e;
    layers;
    info =
      [
        ("domains", `I domains);
        ("graph", `S graph_spec);
        ("model", `S model_spec);
        ("t", `I t);
        ("epsilon", `F epsilon);
        ("op_samples", `I (Array.length times));
        ("accepted", `I !accepted);
        ("clamps", `I !clamps);
        ("sketch_distinct", `F (Sketched.distinct_estimate sketch));
      ];
    spans = (if traced then Some trial_rc else None);
  }
