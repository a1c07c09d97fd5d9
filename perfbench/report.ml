(* Measurement helpers and the result line. *)

let now = Unix.gettimeofday

(* Nearest-rank percentile of an unsorted sample, [p] in [0, 100]. *)
let percentile xs p =
  let n = Array.length xs in
  if n = 0 then 0.
  else begin
    let s = Array.copy xs in
    Array.sort compare s;
    let k = int_of_float (ceil (p /. 100. *. float_of_int n)) - 1 in
    s.(max 0 (min (n - 1) k))
  end

let median xs = percentile xs 50.

(* Timing metrics are medians over consecutive windows of a run, so a
   scheduler stall or a burst of load from another tenant moves one
   window, not the reported value.  A run with fewer than two windows
   reports the plain statistic. *)

(* [f] over consecutive windows of at least [min_window] samples of [xs]
   (in time order); the median of the window values. *)
let windowed xs ~min_window f =
  let n = Array.length xs in
  let k = n / min_window in
  if k < 2 then f xs
  else median (Array.init k (fun j -> f (Array.sub xs (j * n / k) (((j + 1) * n / k) - (j * n / k)))))

(* Ops per second from [(ops, seconds)] chunks in time order, over windows
   of [per] consecutive chunks. *)
let chunk_rate chunks ~per =
  let rate a =
    let ops = Array.fold_left (fun acc (o, _) -> acc + o) 0 a in
    let secs = Array.fold_left (fun acc (_, s) -> acc +. s) 0. a in
    if secs > 0. then float_of_int ops /. secs else 0.
  in
  windowed chunks ~min_window:per rate

(* Events per second from completion stamps, over [window]-second windows
   of [t0, t1). *)
let windowed_rate stamps ~t0 ~t1 ~window =
  let k = int_of_float ((t1 -. t0) /. window) in
  if k < 2 then float_of_int (Array.length stamps) /. (t1 -. t0)
  else begin
    let counts = Array.make k 0 in
    Array.iter
      (fun s ->
        let j = int_of_float ((s -. t0) /. window) in
        if j >= 0 && j < k then counts.(j) <- counts.(j) + 1)
      stamps;
    median (Array.map (fun c -> float_of_int c /. window) counts)
  end

(* The p50 and p99 of per-op times, each the median over windows of 250
   ops.  A 30 s run records about 1900 ops or more, so the run's own p99
   has about nineteen samples beyond it.  The windows, at least seven of
   them, keep a few seconds of load from another tenant from setting the
   reported tail. *)
let p50_p99 xs =
  ( windowed xs ~min_window:250 (fun a -> percentile a 50.),
    windowed xs ~min_window:250 (fun a -> percentile a 99.) )

let ratio a b = if b = 0. then 0. else a /. b

(* A field of /proc/self/status, in kB (Linux). *)
let proc_status_kb field =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.
  | ic ->
      let rec go () =
        match input_line ic with
        | exception End_of_file -> 0.
        | line ->
            let p = field ^ ":" in
            let lp = String.length p in
            if String.length line > lp && String.sub line 0 lp = p then
              Scanf.sscanf (String.sub line lp (String.length line - lp)) " %f" Fun.id
            else go ()
      in
      let v = go () in
      close_in ic;
      v

let peak_rss_mb () = proc_status_kb "VmHWM" /. 1024.

(* The workload's GC counters over a window, from [Gc.quick_stat]. *)
type gc = { minor_words : float; promoted : float; minor_gcs : int; major_gcs : int }

let gc_now () =
  let q = Gc.quick_stat () in
  {
    minor_words = q.Gc.minor_words;
    promoted = q.Gc.promoted_words;
    minor_gcs = q.Gc.minor_collections;
    major_gcs = q.Gc.major_collections;
  }

let gc_diff a b =
  {
    minor_words = b.minor_words -. a.minor_words;
    promoted = b.promoted -. a.promoted;
    minor_gcs = b.minor_gcs - a.minor_gcs;
    major_gcs = b.major_gcs - a.major_gcs;
  }

let gc_metrics g ~ops =
  let ops = float_of_int (max 1 ops) in
  [
    ("gc.minor_collections_per_kop", 1000. *. float_of_int g.minor_gcs /. ops, "1/kop");
    ("gc.major_collections_per_kop", 1000. *. float_of_int g.major_gcs /. ops, "1/kop");
    ("gc.promoted_words_per_op", g.promoted /. ops, "words");
  ]

(* Set-up repeated [reps] times; the median time and the last result. *)
let setup_median reps f =
  let times = Array.make reps 0. in
  let last = ref None in
  for i = 0 to reps - 1 do
    let t0 = now () in
    let v = f () in
    times.(i) <- now () -. t0;
    last := Some v
  done;
  (median times, Option.get !last)

(* JSON rendering: every value with all its digits; a non-finite value
   (a bug) is written as -1 so the line stays valid JSON. *)
let json_num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "-1"

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let result_line ~correct ~attempted ~failed metrics =
  let ms =
    List.map
      (fun (name, v, unit) ->
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string name) (json_num v)
          (json_string unit))
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed (String.concat ", " ms)

let provenance_line fields =
  let fs =
    List.map
      (fun (k, v) ->
        let v =
          match v with
          | `S s -> json_string s
          | `I i -> string_of_int i
          | `F f -> json_num f
          | `B b -> string_of_bool b
        in
        Printf.sprintf "%s: %s" (json_string k) v)
      fields
  in
  Printf.sprintf "{\"provenance\": {%s}}" (String.concat ", " fs)
