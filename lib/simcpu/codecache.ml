(** The code cache: bump allocators for the translation sections.

    Mirrors HHVM's section scheme:
    - [Main]  ("a")      — optimized hot code (mapped on huge pages when
                            the optimization is enabled);
    - [Cold]  ("acold")  — exit stubs and cold paths of optimized code;
    - [Prof]  ("aprof")  — profiling translations (reclaimable);
    - [Live]  ("alive")  — live (tracelet) translations.

    A global byte budget caps JIT output (the Fig. 11 experiment); when it
    is exhausted, no further translations are emitted and execution falls
    back to the interpreter (§6.4). *)

type section = Main | Cold | Prof | Live

(* lifecycle telemetry: turnover is observable in every snapshot without
   the caller having to re-derive it from section extents *)
let c_reclaimed = Obs.Vmstats.counter "codecache.reclaimed_bytes"
let g_holes = Obs.Vmstats.gauge "codecache.holes_bytes"
let g_holes_peak = Obs.Vmstats.gauge "codecache.holes_peak_bytes"

(* Disjoint address ranges per section. *)
let base_of = function
  | Main -> 0x1_000_000
  | Cold -> 0x10_000_000
  | Prof -> 0x20_000_000
  | Live -> 0x30_000_000

type t = {
  mutable cursors : (section * int ref) list;
  mutable budget : int option;       (* cap on counted bytes; None = unlimited *)
  mutable used_counted : int;        (* bytes counted against the budget *)
  mutable used_total : int;
  (* lifecycle accounting: eviction frees bytes logically but a bump
     allocator cannot reuse them, so they sit as holes — still consuming
     budget and diluting code density — until a compaction closes them *)
  mutable holes : int;               (* evicted-but-not-compacted bytes *)
  mutable reclaimed : int;           (* lifetime bytes returned to the pool *)
}

let create ?budget () : t =
  { cursors = [ (Main, ref (base_of Main)); (Cold, ref (base_of Cold));
                (Prof, ref (base_of Prof)); (Live, ref (base_of Live)) ];
    budget; used_counted = 0; used_total = 0; holes = 0; reclaimed = 0 }

let cursor (t : t) (s : section) : int ref = List.assoc s t.cursors

(** Profiling code is reclaimed after retranslate-all, so only Main, Cold
    and Live count against the deployment budget. *)
let counted_section = function
  | Main | Cold | Live -> true
  | Prof -> false

(** Allocate [bytes] in section [s]; returns the base address, or None if
    the budget is exhausted. *)
let alloc (t : t) (s : section) (bytes : int) : int option =
  let over_budget =
    counted_section s
    && (match t.budget with
        | Some b -> t.used_counted + bytes > b
        | None -> false)
  in
  if over_budget then None
  else begin
    let c = cursor t s in
    let addr = !c in
    c := !c + bytes;
    t.used_total <- t.used_total + bytes;
    if counted_section s then t.used_counted <- t.used_counted + bytes;
    Some addr
  end

(** Mark [bytes] previously allocated in a counted section as dead (an
    evicted translation).  The bytes become a hole: budget and cursors are
    untouched — the bump allocator cannot reuse mid-section space — so the
    pool only truly shrinks when a compaction rewinds the cursors.  *)
let free (t : t) (s : section) (bytes : int) : unit =
  if counted_section s && bytes > 0 then begin
    t.holes <- t.holes + bytes;
    Obs.Vmstats.set g_holes t.holes;
    Obs.Vmstats.set_max g_holes_peak t.holes
  end

(** Pad section [s] forward to a [boundary]-byte address.  The padding is
    ordinary allocated (and budget-counted) space, not a hole — it is
    never evictable.  If the budget cannot absorb the pad the cursor is
    left where it is: alignment is a density optimization, never a reason
    to fail an allocation. *)
let align_cursor (t : t) (s : section) (boundary : int) : unit =
  let c = cursor t s in
  let pad = (boundary - (!c mod boundary)) mod boundary in
  if pad > 0 then ignore (alloc t s pad)

let main_range (t : t) : int * int = (base_of Main, !(cursor t Main))

(** Bytes currently allocated in one section (telemetry: the vmstats
    [code.bytes.<section>] gauges report these per kind). *)
let section_bytes (t : t) (s : section) : int = !(cursor t s) - base_of s

(** Reset the Main+Cold cursors (used when relocating optimized code during
    retranslate-all / function sorting).  The reclaimed byte count is read
    off the cache's own cursors — callers can't mis-report it — and is
    returned to both the budget-counted and total pools.  Returns the
    number of bytes reclaimed. *)
let reset_optimized (t : t) : int =
  let reclaimed = section_bytes t Main + section_bytes t Cold in
  cursor t Main := base_of Main;
  cursor t Cold := base_of Cold;
  t.used_counted <- max 0 (t.used_counted - reclaimed);
  t.used_total <- max 0 (t.used_total - reclaimed);
  (* any holes were inside the rewound extent, so they are closed too *)
  t.holes <- 0;
  t.reclaimed <- t.reclaimed + reclaimed;
  Obs.Vmstats.add c_reclaimed reclaimed;
  Obs.Vmstats.set g_holes 0;
  reclaimed

(** Close the holes in Main+Cold: rewind both cursors and return the
    hole bytes to the budget-counted and total pools.  The caller re-places
    every surviving translation immediately after (in its original order),
    so the net effect on the pools is exactly [-holes] — only the evicted
    bytes are reclaimed; survivor bytes are given back and re-consumed.
    Returns the number of hole bytes closed. *)
let compact_optimized (t : t) : int =
  let extent = section_bytes t Main + section_bytes t Cold in
  cursor t Main := base_of Main;
  cursor t Cold := base_of Cold;
  t.used_counted <- max 0 (t.used_counted - extent);
  t.used_total <- max 0 (t.used_total - extent);
  let holes = t.holes in
  t.holes <- 0;
  t.reclaimed <- t.reclaimed + holes;
  Obs.Vmstats.add c_reclaimed holes;
  Obs.Vmstats.set g_holes 0;
  holes

let bytes_used (t : t) : int = t.used_total
let bytes_counted (t : t) : int = t.used_counted
let holes_bytes (t : t) : int = t.holes
let reclaimed_bytes (t : t) : int = t.reclaimed
