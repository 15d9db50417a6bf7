(* Samples, quantiles, and the named figures a run reports. *)

type metric = { name : string; value : float; unit_ : string }

type t = { mutable a : float array; mutable n : int }

let create () = { a = Array.make 256 0.; n = 0 }

let add s x =
  if s.n = Array.length s.a then begin
    let b = Array.make (2 * s.n) 0. in
    Array.blit s.a 0 b 0 s.n;
    s.a <- b
  end;
  s.a.(s.n) <- x;
  s.n <- s.n + 1

let count s = s.n
let to_array s = Array.sub s.a 0 s.n

(* Linear interpolation between closest ranks; nan on no samples. *)
let quantile_of (xs : float array) q =
  let a = Array.copy xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i + 1 >= n then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let quantile s q = quantile_of (to_array s) q
let median_of xs = quantile_of (Array.of_list xs) 0.5
