(* What every workload hands back to locbench.ml, and pieces they share. *)

module Rng = Ls_rng.Rng
module Splitmix = Ls_rng.Splitmix

type outcome = {
  attempted : int;
  failed : int;
  checks : (string * bool * string) list;  (** Name, passed, detail. *)
  e2e : (string * float * string) list;
  layers : (string * float * string) list;
      (** Per-layer metrics this workload exercises; locbench.ml reports
          the rest as 0. *)
  info : (string * [ `S of string | `I of int | `F of float | `B of bool ]) list;
      (** Provenance fields specific to the workload. *)
  spans : Span.t option;  (** Kept spans to write out (traced runs). *)
}

let ok_exn what = function Ok v -> v | Error e -> failwith (what ^ ": " ^ e)

(* Scratch output lives under .perfbench/ in the current directory. *)
let ensure_dir d =
  let rec go d =
    if d <> "." && not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      Sys.mkdir d 0o755
    end
  in
  go d

(* Warm-up inputs in set-up come from this fixed seed, not the workload
   seed, so every run's set-up does the same work and [setup_s] compares
   set-up cost rather than one seed's luck. *)
let warm_seed = 0x5eedL

(* Op [i]'s private stream: a pure function of the workload seed. *)
let op_rng seed i =
  Rng.create (Splitmix.mix64 (Int64.add (Splitmix.mix64 seed) (Int64.of_int (i + 1))))

(* The oracle the benchmark hands to a sampler: the layer's own [infer],
   inside a [gibbs.infer] span when the calling trial is traced. *)
let wrap_oracle (o : Ls_core.Inference.oracle) =
  {
    o with
    Ls_core.Inference.infer =
      (fun inst v ->
        match Domain.DLS.get Span.current with
        | None -> o.Ls_core.Inference.infer inst v
        | Some r -> Span.within r Span.Gibbs (fun () -> o.Ls_core.Inference.infer inst v));
  }

(* Hardcore feasibility: no edge with both ends occupied. *)
let independent g sigma =
  let ok = ref true in
  Ls_graph.Graph.iter_edges g (fun u v -> if sigma.(u) = 1 && sigma.(v) = 1 then ok := false);
  !ok

(* Kernel rows for the rng/dist layers, on the workload's own inputs:
   [weights] are its marginal vectors, [n] its vertex count. *)
let kernel_rows ~seed ~weights ~n =
  (* Each loop sums into a local accumulator, so the loop itself does not
     allocate and the words counted are the kernel's own. *)
  let time_per ~calls f =
    let w0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    ignore (Sys.opaque_identity (f ()));
    let t1 = Unix.gettimeofday () in
    let w1 = Gc.minor_words () in
    ((t1 -. t0) /. float_of_int calls, (w1 -. w0) /. float_of_int calls)
  in
  let rng = Rng.create seed in
  let calls = 200_000 in
  let float_s, float_w =
    time_per ~calls (fun () ->
        let acc = ref 0. in
        for _ = 1 to calls do
          acc := !acc +. Rng.float rng
        done;
        !acc)
  in
  let weights = Array.of_list weights in
  let nw = Array.length weights in
  let discrete_s, discrete_w =
    time_per ~calls (fun () ->
        let acc = ref 0 in
        for i = 1 to calls do
          acc := !acc + Rng.discrete rng weights.(i mod nw)
        done;
        !acc)
  in
  let dists = Array.map Ls_dist.Dist.of_weights weights in
  let dist_s, _ =
    time_per ~calls (fun () ->
        let acc = ref 0 in
        for i = 1 to calls do
          acc := !acc + Ls_dist.Dist.sample rng dists.(i mod nw)
        done;
        !acc)
  in
  let reps = 2000 in
  let streams_s, _ =
    time_per ~calls:reps (fun () ->
        let acc = ref 0 in
        for i = 1 to reps do
          acc := !acc + Array.length (Rng.streams (Int64.of_int i) n)
        done;
        !acc)
  in
  [
    ("rng.float_ns", float_s *. 1e9, "ns");
    ("rng.float_words", float_w, "words");
    ("rng.discrete_ns", discrete_s *. 1e9, "ns");
    ("rng.discrete_words", discrete_w, "words");
    ("rng.streams_us", streams_s *. 1e6, "us");
    ("dist.sample_ns", dist_s *. 1e9, "ns");
  ]

(* [Local_sampler.plan] on the workload's own instance, per call. *)
let plan_ms oracle inst ~seed =
  let calls = 20 in
  let t0 = Unix.gettimeofday () in
  for i = 1 to calls do
    ignore
      (Sys.opaque_identity
         (Ls_core.Local_sampler.plan oracle inst ~seed:(Int64.add seed (Int64.of_int i))))
  done;
  (Unix.gettimeofday () -. t0) /. float_of_int calls *. 1e3
