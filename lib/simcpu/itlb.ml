(** Instruction-TLB model: fully associative, LRU.

    The huge-pages optimization (paper §5.1.2) maps the hot code section on
    2 MB pages (dedicated large-page entries on x86): with [huge] enabled,
    addresses inside the configured hot range translate with 21-bit pages,
    everything else with 4 KB pages.

    The entries are kept in recency order, most recent first, like the
    i-cache's sets: exact LRU with no use stamps. *)

type t = {
  entries : int;
  pages : int array;          (* page numbers, most recent first; -1 = empty *)
  mutable accesses : int;
  mutable misses : int;
  mutable huge : bool;
  mutable huge_lo : int;      (* hot-section address range for huge pages *)
  mutable huge_hi : int;
  (* the page of the last access; [Exec.run] reads it to skip fetches
     that would return 0 (min_int: no page since the last [set_huge]) *)
  mutable last_page : int;
}

let miss_cycles = 40

(* Page sizes are scaled down with the simulated code footprint, like the
   cache capacities: the paper's 4 KB pages cover ~0.0008% of its 491 MB
   code cache; 512-byte simulated pages keep page-granularity pressure on
   our tens-of-KB cache.  "Huge" pages scale by the same x512 ratio that
   separates 4 KB from 2 MB pages. *)
let small_bits = 9            (* 512 B simulated page *)
let huge_bits = 18            (* 256 KB simulated huge page *)

(* Scaled like the i-cache: a real 64-entry ITLB covers 256 KB of a 491 MB
   code cache (0.05%); 4 entries over our tens-of-KB cache keeps comparable
   pressure. *)
let create ?(entries = 4) () : t =
  { entries;
    pages = Array.make entries (-1);
    accesses = 0; misses = 0;
    huge = false; huge_lo = 0; huge_hi = 0; last_page = min_int }

let set_huge (t : t) ~(enabled : bool) ~(lo : int) ~(hi : int) =
  t.huge <- enabled;
  t.huge_lo <- lo;
  t.huge_hi <- hi;
  t.last_page <- min_int

(** Page id for an address; huge pages get a disjoint id space (bit 62). *)
let page_of (t : t) (addr : int) : int =
  if t.huge && addr >= t.huge_lo && addr < t.huge_hi then
    (addr lsr huge_bits) lor (1 lsl 62)
  else addr lsr small_bits

let access (t : t) (addr : int) : int =
  let page = page_of t addr in
  if page = t.last_page then 0
  else begin
    t.last_page <- page;
    t.accesses <- t.accesses + 1;
    if t.pages.(0) = page || Icache.touch t.pages 0 t.entries page then 0
    else begin
      t.misses <- t.misses + 1;
      miss_cycles
    end
  end
