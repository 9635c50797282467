(** Set-associative instruction-cache model with LRU replacement.

    Code locality (basic-block layout, hot/cold splitting, function sorting)
    is evaluated through this model: every simulated instruction fetch maps
    its byte address to a cache line; misses charge {!miss_cycles}. *)

type t = {
  sets : int;
  ways : int;
  line_bits : int;
  (* tags.(set) = tag array; lru.(set).(way) = last-use stamp *)
  tags : int array array;
  lru : int array array;
  mutable clock : int;
  mutable accesses : int;
  mutable misses : int;
  (* fast path: the last line fetched; [Exec.run] reads it to skip
     fetches that would return 0 *)
  mutable last_line : int;
}

let miss_cycles = 36

(* The default capacity is scaled down from a real 32 KB L1i in proportion
   to the simulated workload's code footprint (tens-hundreds of KB here vs
   hundreds of MB in the paper), preserving the code:cache pressure that
   drives the layout/splitting/sorting experiments. *)
let create ?(size_kb = 2) ?(ways = 4) ?(line_bytes = 64) () : t =
  let lines = size_kb * 1024 / line_bytes in
  let sets = max 1 (lines / ways) in
  let line_bits =
    int_of_float (Float.round (Float.log2 (float_of_int line_bytes)))
  in
  { sets; ways; line_bits;
    tags = Array.init sets (fun _ -> Array.make ways (-1));
    lru = Array.init sets (fun _ -> Array.make ways 0);
    clock = 0; accesses = 0; misses = 0; last_line = -1 }

(** Access [addr]; returns the cycle cost of the fetch (0 on a same-line hit). *)
let access (c : t) (addr : int) : int =
  let line = addr lsr c.line_bits in
  if line = c.last_line then 0
  else begin
    c.last_line <- line;
    c.accesses <- c.accesses + 1;
    c.clock <- c.clock + 1;
    let set = line mod c.sets in
    let tag = line / c.sets in
    let tags = c.tags.(set) and lru = c.lru.(set) in
    let hit = ref (-1) in
    for w = 0 to c.ways - 1 do
      if tags.(w) = tag then hit := w
    done;
    if !hit >= 0 then begin
      lru.(!hit) <- c.clock;
      0
    end else begin
      c.misses <- c.misses + 1;
      (* evict LRU way *)
      let victim = ref 0 in
      for w = 1 to c.ways - 1 do
        if lru.(w) < lru.(!victim) then victim := w
      done;
      tags.(!victim) <- tag;
      lru.(!victim) <- c.clock;
      miss_cycles
    end
  end
