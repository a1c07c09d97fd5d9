(* flood-faulty: the one workload with genuine message passing.
   [Local_sampler.sample_resilient] at 1 domain, hardcore lambda = 1 on a
   64-cycle, t = 2, over the synchronous [Network] executor carrying a
   drop-only fault plan reseeded per trial. *)

open Ls_core
open Common
module Engine = Ls_serve.Engine
module Faults = Ls_local.Faults
module Metrics = Ls_obs.Metrics

let graph_spec = "cycle:64"
let model_spec = "hardcore:1"
let t = 2
(* About three trials in four finish on their first attempt, so the median
   trial is a first-attempt one.  Trial times cluster by attempt count; at
   a rate where most trials retry, the median falls in a gap between
   clusters and moves by a fifth between runs of one seed. *)
let drop = 0.0005
let round_ops = 16

(* The deterministic counts cover exactly this many leading trials. *)
let count_ops = 1600

(* Trials replayed after the timed phase with Metrics on, to check message
   conservation. *)
let check_ops = 32

let run ~seed ~seconds ~traced =
  Ls_par.Par.set_domains 1;
  let graph_times = ref [] in
  let trial ~seed oracle inst plan i =
    let rng = op_rng seed i in
    let s = Rng.bits64 rng in
    let faults = Faults.reseed plan ~seed:(Rng.bits64 rng) in
    Local_sampler.sample_resilient oracle ~faults inst ~seed:s
  in
  let sample = trial ~seed in
  let setup () =
    let t0 = Report.now () in
    let g = ok_exn "graph" (Engine.parse_graph (Rng.create seed) graph_spec) in
    graph_times := (Report.now () -. t0) :: !graph_times;
    let m = ok_exn "model" (Engine.parse_model g model_spec) in
    let inst = Instance.unpinned m.Engine.spec in
    let base = Inference.ssm_oracle ~t inst in
    let oracle = wrap_oracle base in
    let plan = Faults.make ~seed:(Splitmix.mix64 seed) ~drop () in
    (* Several warm-up trials, so the set-up time does not hang on one
       trial's attempt count. *)
    for j = 1 to 16 do
      ignore (trial ~seed:warm_seed oracle inst plan j)
    done;
    (g, inst, base, oracle, plan)
  in
  let setup_s, (g, inst, base, oracle, plan) = Report.setup_median 9 setup in
  let n = Instance.n inst in
  let rc_all = Span.create () in
  let times = ref [] and chunks = ref [] in
  let ops = ref 0 and successes = ref 0 and failed = ref 0 and infeasible = ref 0 in
  let errors = ref [] in
  let prefix_rounds = ref 0 and prefix_attempts = ref 0 and prefix_degraded = ref 0 in
  let prefix_metrics = ref Metrics.empty and prefix_calls = ref 0 in
  let traced_t = ref 0. and traced_n = ref 0 and plain_t = ref 0. and plain_n = ref 0 in
  let prefix_rounds_n = count_ops / round_ops in
  if traced then Metrics.reset ();
  let gc0 = Report.gc_now () in
  let t_start = Report.now () in
  let k = ref 0 in
  (* A traced run also needs a few alternating rounds after the prefix. *)
  while Report.now () -. t_start < seconds || !ops < count_ops || (traced && !k < prefix_rounds_n + 8) do
    let in_prefix = !k < prefix_rounds_n in
    let traced_round = traced && (in_prefix || (!k - prefix_rounds_n) mod 2 = 0) in
    let rc = if traced_round then Some rc_all else None in
    Metrics.set_enabled traced_round;
    Domain.DLS.set Span.current rc;
    let round_t = ref 0. in
    for _ = 1 to round_ops do
      let i = !ops in
      (match rc with Some r -> Span.set_op r i | None -> ());
      let t0 = Report.now () in
      let res =
        try
          Ok
            (Span.maybe rc Span.Op (fun () ->
                 Span.maybe rc Span.Local (fun () -> sample oracle inst plan i)))
        with e -> Error (Printexc.to_string e)
      in
      let dt = Report.now () -. t0 in
      round_t := !round_t +. dt;
      times := dt :: !times;
      incr ops;
      match res with
      | Error e ->
          incr failed;
          errors := e :: !errors
      | Ok r ->
          let rep = Option.get r.Local_sampler.resilience in
          if in_prefix then begin
            prefix_rounds := !prefix_rounds + r.Local_sampler.rounds;
            prefix_attempts := !prefix_attempts + rep.Ls_local.Resilient.attempts;
            if rep.Ls_local.Resilient.degraded then incr prefix_degraded
          end;
          if r.Local_sampler.success then
            if independent g r.Local_sampler.sigma then incr successes
            else begin
              incr failed;
              incr infeasible
            end
    done;
    Domain.DLS.set Span.current None;
    Metrics.set_enabled false;
    chunks := (round_ops, !round_t) :: !chunks;
    if traced && not in_prefix then
      if traced_round then begin
        traced_t := !traced_t +. !round_t;
        traced_n := !traced_n + round_ops
      end
      else begin
        plain_t := !plain_t +. !round_t;
        plain_n := !plain_n + round_ops
      end;
    if traced && in_prefix && !k = prefix_rounds_n - 1 then begin
      prefix_metrics := Metrics.snapshot ();
      prefix_calls := Span.calls rc_all Span.Gibbs
    end;
    incr k
  done;
  let gc = Report.gc_diff gc0 (Report.gc_now ()) in
  let rss = Report.peak_rss_mb () in
  let traced_metrics = if traced then Metrics.snapshot () else Metrics.empty in
  (* Message conservation over the Metrics counters.  With a drop-only
     plan and no crash, every live node sends to every neighbour in every
     flood round, and each such send is either dropped or transmitted
     once: messages + drops = 2|E| * rounds, with nothing duplicated,
     quarantined or dead-lettered. *)
  Metrics.reset ();
  Metrics.set_enabled true;
  let attempts = ref 0 in
  for j = 1 to check_ops do
    let r = sample base inst plan (-1 - j) in
    attempts := !attempts + (Option.get r.Local_sampler.resilience).Ls_local.Resilient.attempts
  done;
  Metrics.set_enabled false;
  let c = Metrics.snapshot () in
  let m2 = 2 * Ls_graph.Graph.m g in
  let conserved =
    c.Metrics.messages + c.Metrics.drops = m2 * c.Metrics.rounds
    && c.Metrics.duplicates = 0 && c.Metrics.quarantines = 0 && c.Metrics.dead_letters = 0
    && c.Metrics.attempts = !attempts && c.Metrics.messages > 0
  in
  let conservation_detail =
    Printf.sprintf "messages %d + drops %d vs 2|E| x rounds = %d x %d; attempts %d vs %d"
      c.Metrics.messages c.Metrics.drops m2 c.Metrics.rounds c.Metrics.attempts !attempts
  in
  let failed = if conserved then !failed else !ops in
  let times = Array.of_list (List.rev !times) in
  let fi = float_of_int in
  let p50, p99 = Report.p50_p99 times in
  let trial_rate = Report.chunk_rate (Array.of_list (List.rev !chunks)) ~per:16 in
  let e2e =
    [
      ("setup_s", setup_s, "s");
      ("throughput_ops_s", trial_rate *. fi !successes /. fi !ops, "1/s");
      ("op_p50_ms", p50 *. 1e3, "ms");
      ("op_p99_ms", p99 *. 1e3, "ms");
      ("ok_frac", 1. -. (fi failed /. fi !ops), "frac");
      ("peak_rss_mb", rss, "MB");
      ("alloc_words_per_op", gc.Report.minor_words /. fi !ops, "words");
      ("rounds_per_op", fi !prefix_rounds /. fi count_ops, "count");
    ]
  in
  let layers =
    if not traced then []
    else begin
      let r = rc_all in
      let m = !prefix_metrics in
      let gibbs_calls = fi (Span.calls r Span.Gibbs) in
      let local_calls = fi (Span.calls r Span.Local) in
      let local_self = Span.self_s r Span.Local in
      let msgs = fi traced_metrics.Metrics.messages in
      let weights =
        List.init n (fun v -> (base.Inference.infer inst v : Ls_dist.Dist.t :> float array))
      in
      [
        ("gibbs.infer_calls_per_op", fi !prefix_calls /. fi count_ops, "count");
        ("gibbs.infer_us_per_call", Report.ratio (Span.self_s r Span.Gibbs) gibbs_calls *. 1e6, "us");
        ("gibbs.infer_words_per_call", Report.ratio (Span.self_words r Span.Gibbs) gibbs_calls, "words");
        ("gibbs.infer_share", Report.ratio (Span.self_s r Span.Gibbs) r.Span.root_t, "frac");
        ("core.resilient.attempts_per_op", fi !prefix_attempts /. fi count_ops, "count");
        ("core.resilient.degraded_frac", fi !prefix_degraded /. fi count_ops, "frac");
        ("local.self_ms_per_op", Report.ratio local_self local_calls *. 1e3, "ms");
        ("local.messages_per_op", fi m.Metrics.messages /. fi count_ops, "count");
        ("local.bits_per_message", Report.ratio (fi m.Metrics.bits) (fi m.Metrics.messages), "bits");
        ("local.ns_per_message", Report.ratio local_self msgs *. 1e9, "ns");
        ("local.words_per_message", Report.ratio (Span.self_words r Span.Local) msgs, "words");
        ("local.plan_ms", plan_ms base inst ~seed, "ms");
        ("graph.build_ms", Report.median (Array.of_list !graph_times) *. 1e3, "ms");
        ( "trace.overhead_frac",
          Report.ratio (!traced_t /. fi (max 1 !traced_n)) (!plain_t /. fi (max 1 !plain_n)) -. 1.,
          "frac" );
        ("trace.coverage_frac", Span.coverage r, "frac");
      ]
      @ Report.gc_metrics gc ~ops:!ops
      @ kernel_rows ~seed ~weights ~n
    end
  in
  {
    attempted = !ops;
    failed;
    checks =
      [
        ("conservation", conserved, conservation_detail);
        ("feasible", !infeasible = 0, Printf.sprintf "%d infeasible successful samples" !infeasible);
        ( "no_errors",
          !errors = [],
          match !errors with [] -> "0 trial errors" | e :: _ -> "trial error: " ^ e );
      ];
    e2e;
    layers;
    info =
      [
        ("domains", `I 1);
        ("graph", `S graph_spec);
        ("model", `S model_spec);
        ("t", `I t);
        ("faults", `S (Faults.describe plan));
        ("op_samples", `I (Array.length times));
        ("successes", `I !successes);
      ];
    spans = (if traced then Some rc_all else None);
  }
