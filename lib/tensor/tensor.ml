(* Dense row-major tensors of OCaml floats.

   All dtypes are represented as floats: predicates as 0. / 1., integers as
   whole floats.  Numerics here are ground truth; the simulated kernels
   must reproduce them bit-for-bit (same evaluation order per element). *)

open Astitch_ir

type t = { shape : Shape.t; data : float array }

exception Mismatch of string

let mismatch fmt = Format.kasprintf (fun s -> raise (Mismatch s)) fmt

let create shape data =
  if Array.length data <> Shape.num_elements shape then
    mismatch "data length %d does not match shape %s" (Array.length data)
      (Shape.to_string shape);
  { shape; data }

let shape t = t.shape
let data t = t.data
let num_elements t = Array.length t.data

let full shape v = { shape; data = Array.make (Shape.num_elements shape) v }
let zeros shape = full shape 0.
let ones shape = full shape 1.
let scalar v = { shape = Shape.scalar; data = [| v |] }

let init shape f =
  { shape; data = Array.init (Shape.num_elements shape) f }

let of_list dims values =
  create (Shape.of_list dims) (Array.of_list values)

let get t idx = t.data.(Shape.linear_index t.shape idx)
let get_linear t i = t.data.(i)
let set_linear t i v = t.data.(i) <- v

let copy t = { t with data = Array.copy t.data }

(* The in-place variants back both the plain combinators and the
   executor's reusable contexts: the destination is written element by
   element in ascending linear order, so filling a preallocated buffer is
   bit-identical to allocating a fresh one.  The element loops read the
   operand data arrays directly - one bounds-checked load per operand per
   element, no per-element closure dispatch through [Array.init]. *)

let map_into f src ~dst =
  if not (Shape.equal src.shape dst.shape) then
    mismatch "map_into: shapes %s vs %s" (Shape.to_string src.shape)
      (Shape.to_string dst.shape);
  let s = src.data and d = dst.data in
  for i = 0 to Array.length d - 1 do
    d.(i) <- f s.(i)
  done;
  dst

let map2_into f a b ~dst =
  if not (Shape.equal a.shape b.shape) then
    mismatch "map2: shapes %s vs %s" (Shape.to_string a.shape)
      (Shape.to_string b.shape);
  if not (Shape.equal a.shape dst.shape) then
    mismatch "map2_into: dst shape %s vs %s" (Shape.to_string dst.shape)
      (Shape.to_string a.shape);
  let x = a.data and y = b.data and d = dst.data in
  for i = 0 to Array.length d - 1 do
    d.(i) <- f x.(i) y.(i)
  done;
  dst

let map f t = map_into f t ~dst:{ t with data = Array.make (Array.length t.data) 0. }

let map2 f a b =
  if not (Shape.equal a.shape b.shape) then
    mismatch "map2: shapes %s vs %s" (Shape.to_string a.shape)
      (Shape.to_string b.shape);
  map2_into f a b ~dst:{ a with data = Array.make (Array.length a.data) 0. }

let reshape t shape =
  if Shape.num_elements shape <> num_elements t then
    mismatch "reshape: element count mismatch";
  { t with shape }

let equal_approx ?(eps = 1e-6) a b =
  Shape.equal a.shape b.shape
  && Array.for_all2
       (fun x y ->
         x = y (* covers equal infinities *)
         || (Float.is_nan x && Float.is_nan y)
         ||
         let scale = Float.max 1.0 (Float.max (Float.abs x) (Float.abs y)) in
         Float.abs (x -. y) <= eps *. scale)
       a.data b.data

let equal_bits a b =
  Shape.equal a.shape b.shape
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a.data b.data

let max_abs_diff a b =
  if not (Shape.equal a.shape b.shape) then infinity
  else begin
    let worst = ref 0. in
    Array.iteri
      (fun i x ->
        let d = Float.abs (x -. b.data.(i)) in
        if d > !worst then worst := d)
      a.data;
    !worst
  end

let pp fmt t =
  Format.fprintf fmt "%s[" (Shape.to_string t.shape);
  let n = Stdlib.min 8 (Array.length t.data) in
  for i = 0 to n - 1 do
    if i > 0 then Format.fprintf fmt ", ";
    Format.fprintf fmt "%g" t.data.(i)
  done;
  if Array.length t.data > n then Format.fprintf fmt ", ...";
  Format.fprintf fmt "]"

(* Deterministic pseudo-random fill for tests/workloads (no global state). *)
let random ~seed shape =
  let state = ref (seed land 0x3FFFFFFF) in
  let next () =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    (float_of_int !state /. float_of_int 0x3FFFFFFF *. 2.) -. 1.
  in
  init shape (fun _ -> next ())
