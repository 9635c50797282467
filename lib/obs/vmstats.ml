(** Vmstats: the VM-wide telemetry registry (HHVM's `vmstats` / perf
    counters, scaled to this substrate).

    Four primitive kinds, all O(1) on the hot path:
    - {b counters}: monotonically increasing event counts (cache hits,
      guard failures, side exits, ...);
    - {b gauges}: last-write-wins levels sampled at dump time (code-cache
      bytes, heap live objects, ...);
    - {b histograms}: log2-bucketed value distributions (translation sizes,
      chain lengths, ...);
    - {b timers}: accumulated wall-clock per named phase (HHIR pass times).

    Values are {b per domain}, like [Runtime.Ledger]'s accounts.  A
    counter, histogram or timer handle is the dense index its name got
    when it was registered (once, at module init); its values live in
    the calling domain's arrays (domain-local storage), so a probe is one
    index into them — no hashing, locking or allocation per event.
    Reads, {!reset} and the dumps see the calling domain.  A scheduler
    that joins domains folds each joined domain's values into its own
    with {!absorb}, so totals are exact for any schedule.  Gauges are
    the exception: global levels that only the main domain samples.

    Every mutation is gated on {!enabled} (the [Jit_options.stats] knob),
    so a stats-off run pays one branch per probe.  Names are dotted paths,
    [subsystem.event] (e.g. [dispatch.mono_hit], [pass.rce.seconds]); the
    registry dumps as stable-sorted text or JSON. *)

type counter = { c_idx : int } [@@unboxed]
type histogram = { hg_idx : int } [@@unboxed]
type timer = { t_idx : int } [@@unboxed]
type gauge = { g_name : string; mutable g_value : int }

(** A log2-bucketed distribution: one histogram's values on one domain,
    or a standalone one that a report fills itself. *)
type dist = {
  h_name : string;
  h_buckets : int array;        (* bucket i counts values in [2^(i-1), 2^i) *)
  mutable h_count : int;
  mutable h_sum : int;
  (* largest value observed: log2 buckets cannot recover the exact max,
     and serving latency reports need the true tail *)
  mutable h_max : int;
}

let new_dist (name : string) : dist =
  { h_name = name; h_buckets = Array.make 63 0;
    h_count = 0; h_sum = 0; h_max = 0 }

(** The global stats knob ([Jit_options.stats]); set at engine install. *)
let enabled = ref true

let on () = !enabled

(* ------------------------------------------------------------------ *)
(* Registry: names and their dense indices, process-wide               *)
(* ------------------------------------------------------------------ *)

(* Registered names, by index *)
let counter_names : string array ref = ref [||]
let histogram_names : string array ref = ref [||]
let timer_names : string array ref = ref [||]
let gauges : (string, gauge) Hashtbl.t = Hashtbl.create 32

(* Guards the registry: handles may be registered and values absorbed
   from any domain.  Never taken by a probe once its domain's arrays
   hold every registered handle. *)
let lock = Mutex.create ()

let register (r : string array ref) (name : string) : int =
  Mutex.protect lock (fun () ->
      match Array.find_index (String.equal name) !r with
      | Some i -> i
      | None ->
        r := Array.append !r [| name |];
        Array.length !r - 1)

let lookup (r : string array ref) (name : string) : int option =
  Mutex.protect lock (fun () -> Array.find_index (String.equal name) !r)

let counter (name : string) : counter = { c_idx = register counter_names name }
let histogram (name : string) : histogram =
  { hg_idx = register histogram_names name }
let timer (name : string) : timer = { t_idx = register timer_names name }

let gauge (name : string) : gauge =
  Mutex.protect lock (fun () ->
      match Hashtbl.find_opt gauges name with
      | Some g -> g
      | None ->
        let g = { g_name = name; g_value = 0 } in
        Hashtbl.replace gauges name g;
        g)

(* ------------------------------------------------------------------ *)
(* Per-domain values                                                   *)
(* ------------------------------------------------------------------ *)

(** One domain's values, indexed by handle. *)
type store = {
  mutable counts : int array;
  mutable dists : dist array;
  mutable seconds : float array;
  mutable calls : int array;
}

(* Grow [s]'s arrays to hold every registered handle: a domain's first
   probe, and the first probe of a handle registered after that. *)
let fit (s : store) : unit =
  Mutex.protect lock (fun () ->
      let extend a n fill =
        let k = Array.length a in
        if k >= n then a
        else Array.init n (fun i -> if i < k then a.(i) else fill i)
      in
      let nt = Array.length !timer_names in
      s.counts <-
        extend s.counts (Array.length !counter_names) (fun _ -> 0);
      s.dists <-
        extend s.dists (Array.length !histogram_names)
          (fun i -> new_dist !histogram_names.(i));
      s.seconds <- extend s.seconds nt (fun _ -> 0.0);
      s.calls <- extend s.calls nt (fun _ -> 0))

let key : store Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let s = { counts = [||]; dists = [||]; seconds = [||]; calls = [||] } in
      fit s;
      s)

(** This domain's values: what a joined domain hands its scheduler for
    {!absorb}. *)
let local () : store = Domain.DLS.get key

(** This domain's counter array, holding every counter registered so far.
    The interpreter's dispatch loop fetches it once per activation and
    bumps [interp.op.*] through it by index.  The array is replaced only
    when a handle registered after it was sized is probed; every handle
    in [lib] is registered at module init, so a held array stays live. *)
let counts () : int array =
  let s = local () in
  if Array.length s.counts < Array.length !counter_names then fit s;
  s.counts

let dist_on (s : store) (h : histogram) : dist =
  if h.hg_idx >= Array.length s.dists then fit s;
  s.dists.(h.hg_idx)

(** This domain's values of histogram [h]. *)
let dist (h : histogram) : dist = dist_on (local ()) h

(* ------------------------------------------------------------------ *)
(* Probes (hot path)                                                   *)
(* ------------------------------------------------------------------ *)

(** Count into a store the caller already holds: the engine's dispatch
    probes go through the store of the domain's SimCPU machine instead
    of reading the domain-local key per probe. *)
let add_on (s : store) (c : counter) (n : int) =
  if !enabled then begin
    if c.c_idx >= Array.length s.counts then fit s;
    s.counts.(c.c_idx) <- s.counts.(c.c_idx) + n
  end

let bump_on (s : store) (c : counter) = add_on s c 1

let add (c : counter) (n : int) = if !enabled then add_on (local ()) c n

let bump (c : counter) = add c 1

(* gauges are level samples taken at dump time on the main domain *)
let set (g : gauge) (v : int) = if !enabled then g.g_value <- v

(** High-water-mark write: keep the largest value ever set.  For levels
    whose peak matters more than the instantaneous sample — e.g. how
    fragmented the code cache got between compactions
    ([codecache.holes_peak_bytes]), where dump-time sampling would read 0
    right after a compaction closed every hole. *)
let set_max (g : gauge) (v : int) =
  if !enabled && v > g.g_value then g.g_value <- v

(** Index of the log2 bucket for [v]: 0 for v <= 0, else 1 + floor(log2 v). *)
let bucket_of (v : int) : int =
  if v <= 0 then 0
  else begin
    let b = ref 0 and v = ref v in
    while !v > 0 do incr b; v := !v lsr 1 done;
    min !b 62
  end

let observe_record (h : dist) (v : int) =
  h.h_buckets.(bucket_of v) <- h.h_buckets.(bucket_of v) + 1;
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum + v;
  if v > h.h_max then h.h_max <- v

(** Estimate the [p]-th percentile (p in [0,100]) from the log2 buckets:
    nearest-rank bucket walk, linear interpolation inside the bucket.
    The true maximum ([h_max]) caps the top bucket's upper edge, so tail
    estimates never exceed an observed value.  An estimator, not an exact
    order statistic — the raw samples are not retained. *)
let percentile (h : dist) (p : float) : float =
  if h.h_count = 0 then 0.0
  else begin
    let rank =
      let r = int_of_float (ceil (p /. 100.0 *. float_of_int h.h_count)) in
      min (max r 1) h.h_count
    in
    let res = ref 0.0 and cum = ref 0 and found = ref false in
    let i = ref 0 in
    while not !found && !i < Array.length h.h_buckets do
      let n = h.h_buckets.(!i) in
      if n > 0 && !cum + n >= rank then begin
        found := true;
        if !i = 0 then res := 0.0
        else begin
          let lo = float_of_int (1 lsl (!i - 1)) in
          let hi =
            min (float_of_int (1 lsl !i)) (float_of_int h.h_max +. 1.0)
          in
          let hi = if hi <= lo then lo +. 1.0 else hi in
          let frac = float_of_int (rank - !cum) /. float_of_int n in
          res := lo +. (frac *. (hi -. lo))
        end
      end else cum := !cum + n;
      incr i
    done;
    min !res (float_of_int h.h_max)
  end

let histogram_max (h : dist) : int = h.h_max

let observe_on (s : store) (h : histogram) (v : int) =
  if !enabled then observe_record (dist_on s h) v

let observe (h : histogram) (v : int) =
  if !enabled then observe_record (dist h) v

let record_seconds (t : timer) (dt : float) =
  if !enabled then begin
    let s = local () in
    if t.t_idx >= Array.length s.seconds then fit s;
    s.seconds.(t.t_idx) <- s.seconds.(t.t_idx) +. dt;
    s.calls.(t.t_idx) <- s.calls.(t.t_idx) + 1
  end

(** Time [f], attributing its wall-clock to [t] (even if it raises). *)
let time (t : timer) (f : unit -> 'a) : 'a =
  if not !enabled then f ()
  else begin
    let t0 = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () -> record_seconds t (Unix.gettimeofday () -. t0))
      f
  end

(** Fold a joined domain's values into this domain's (scheduler join).
    Every merge commutes, so totals are exact for any join order. *)
let absorb (w : store) : unit =
  let s = local () in
  fit s;
  Array.iteri (fun i n -> s.counts.(i) <- s.counts.(i) + n) w.counts;
  Array.iteri
    (fun i (d : dist) ->
       let h = s.dists.(i) in
       Array.iteri (fun b n -> h.h_buckets.(b) <- h.h_buckets.(b) + n)
         d.h_buckets;
       h.h_count <- h.h_count + d.h_count;
       h.h_sum <- h.h_sum + d.h_sum;
       if d.h_max > h.h_max then h.h_max <- d.h_max)
    w.dists;
  Array.iteri (fun i x -> s.seconds.(i) <- s.seconds.(i) +. x) w.seconds;
  Array.iteri (fun i n -> s.calls.(i) <- s.calls.(i) + n) w.calls

(* ------------------------------------------------------------------ *)
(* Reads (tests, dump): the calling domain's values                    *)
(* ------------------------------------------------------------------ *)

let at (a : 'a array) (i : int) (zero : 'a) : 'a =
  if i < Array.length a then a.(i) else zero

(** This domain's count for [c]. *)
let count (c : counter) : int = at (local ()).counts c.c_idx 0

let counter_value (name : string) : int =
  match lookup counter_names name with
  | Some i -> count { c_idx = i }
  | None -> 0

let gauge_value (name : string) : int =
  match Mutex.protect lock (fun () -> Hashtbl.find_opt gauges name) with
  | Some g -> g.g_value
  | None -> 0

let timer_seconds (name : string) : float =
  match lookup timer_names name with
  | Some i -> at (local ()).seconds i 0.0
  | None -> 0.0

let timer_calls (name : string) : int =
  match lookup timer_names name with
  | Some i -> at (local ()).calls i 0
  | None -> 0

let reset_dist (h : dist) =
  Array.fill h.h_buckets 0 (Array.length h.h_buckets) 0;
  h.h_count <- 0;
  h.h_sum <- 0;
  h.h_max <- 0

let reset_histogram (h : histogram) = reset_dist (dist h)

(** Zero this domain's values and every gauge; handles stay valid
    (registrations are per-process, values are per-engine —
    Engine.install resets). *)
let reset () =
  let s = local () in
  Array.fill s.counts 0 (Array.length s.counts) 0;
  Array.iter reset_dist s.dists;
  Array.fill s.seconds 0 (Array.length s.seconds) 0.0;
  Array.fill s.calls 0 (Array.length s.calls) 0;
  Mutex.protect lock (fun () -> Hashtbl.iter (fun _ g -> g.g_value <- 0) gauges)

(* ------------------------------------------------------------------ *)
(* Dumps                                                               *)
(* ------------------------------------------------------------------ *)

(* (name, index) pairs, sorted by name *)
let sorted (r : string array ref) : (string * int) list =
  List.sort compare (List.mapi (fun i n -> (n, i)) (Array.to_list !r))

let sorted_gauges () : string list =
  Mutex.protect lock (fun () ->
      Hashtbl.fold (fun k _ acc -> k :: acc) gauges [])
  |> List.sort compare

let json_escape (s : string) : string =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
       match c with
       | '"' -> Buffer.add_string buf "\\\""
       | '\\' -> Buffer.add_string buf "\\\\"
       | '\n' -> Buffer.add_string buf "\\n"
       | c when Char.code c < 0x20 ->
         Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
       | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(** The counter registry as a JSON object (stable key order).  The shape is
    {v {"counters":{..},"gauges":{..},"histograms":{..},"timers":{..}} v};
    histogram buckets are emitted sparsely as ["log2_buckets": {"<i>": n}]
    where bucket [i] covers values in [2^(i-1), 2^i). *)
let to_json ?(indent = "") () : string =
  let s = local () in
  let buf = Buffer.create 4096 in
  let pad = indent and pad2 = indent ^ "  " and pad3 = indent ^ "    " in
  let obj name emit_entries last =
    Buffer.add_string buf
      (Printf.sprintf "%s\"%s\": {\n" pad2 name);
    emit_entries ();
    Buffer.add_string buf (Printf.sprintf "\n%s}%s\n" pad2 (if last then "" else ","))
  in
  let entries names emit_one =
    let first = ref true in
    List.iter
      (fun n ->
         if not !first then Buffer.add_string buf ",\n";
         first := false;
         emit_one n)
      names
  in
  Buffer.add_string buf (Printf.sprintf "%s{\n" pad);
  obj "counters"
    (fun () ->
       entries (sorted counter_names)
         (fun (n, i) ->
            Buffer.add_string buf
              (Printf.sprintf "%s\"%s\": %d" pad3 (json_escape n)
                 (at s.counts i 0))))
    false;
  obj "gauges"
    (fun () ->
       entries (sorted_gauges ())
         (fun n ->
            Buffer.add_string buf
              (Printf.sprintf "%s\"%s\": %d" pad3 (json_escape n)
                 (gauge_value n))))
    false;
  obj "histograms"
    (fun () ->
       entries (sorted histogram_names)
         (fun (n, i) ->
            let h = dist { hg_idx = i } in
            let bl = ref [] in
            Array.iteri
              (fun i c -> if c > 0 then bl := Printf.sprintf "\"%d\": %d" i c :: !bl)
              h.h_buckets;
            Buffer.add_string buf
              (Printf.sprintf
                 "%s\"%s\": { \"count\": %d, \"sum\": %d, \"max\": %d, \
                  \"log2_buckets\": {%s} }"
                 pad3 (json_escape n) h.h_count h.h_sum h.h_max
                 (String.concat ", " (List.rev !bl)))))
    false;
  obj "timers"
    (fun () ->
       entries (sorted timer_names)
         (fun (n, i) ->
            Buffer.add_string buf
              (Printf.sprintf "%s\"%s\": { \"seconds\": %.6f, \"calls\": %d }"
                 pad3 (json_escape n) (at s.seconds i 0.0) (at s.calls i 0))))
    true;
  Buffer.add_string buf (Printf.sprintf "%s}" pad);
  Buffer.contents buf

(** Human-readable registry dump (zero-valued counters are elided). *)
let dump_text () : string =
  let s = local () in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "--- vmstats ---\n";
  List.iter
    (fun (n, i) ->
       let v = at s.counts i 0 in
       if v <> 0 then Buffer.add_string buf (Printf.sprintf "%-40s %12d\n" n v))
    (sorted counter_names);
  List.iter
    (fun n ->
       Buffer.add_string buf
         (Printf.sprintf "%-40s %12d  (gauge)\n" n (gauge_value n)))
    (sorted_gauges ());
  List.iter
    (fun (n, i) ->
       let h = dist { hg_idx = i } in
       if h.h_count > 0 then begin
         Buffer.add_string buf
           (Printf.sprintf "%-40s %12d  (hist; sum %d, avg %.1f)\n" n h.h_count
              h.h_sum (float_of_int h.h_sum /. float_of_int h.h_count));
         Array.iteri
           (fun i c ->
              if c > 0 then
                Buffer.add_string buf
                  (Printf.sprintf "  %-38s %12d  [%d, %d)\n" "" c
                     (if i = 0 then 0 else 1 lsl (i - 1)) (1 lsl i)))
           h.h_buckets
       end)
    (sorted histogram_names);
  List.iter
    (fun (n, i) ->
       let calls = at s.calls i 0 in
       if calls > 0 then
         Buffer.add_string buf
           (Printf.sprintf "%-40s %12.6f s (%d calls)\n" n (at s.seconds i 0.0)
              calls))
    (sorted timer_names);
  Buffer.contents buf
