(* Rationals kept in lowest terms, denominator strictly positive. *)

module B = Bigint

type t = { n : B.t; d : B.t }

let make n d =
  if B.is_zero d then raise Division_by_zero;
  if B.is_zero n then { n = B.zero; d = B.one }
  else begin
    let g = B.gcd n d in
    let n = B.div n g and d = B.div d g in
    if B.sign d < 0 then { n = B.neg n; d = B.neg d } else { n; d }
  end

let zero = { n = B.zero; d = B.one }
let one = { n = B.one; d = B.one }
let minus_one = { n = B.minus_one; d = B.one }
let of_int i = { n = B.of_int i; d = B.one }
let of_ints n d = make (B.of_int n) (B.of_int d)
let num x = x.n
let den x = x.d
let sign x = B.sign x.n
let neg x = { x with n = B.neg x.n }
let abs x = { x with n = B.abs x.n }
let is_one x = B.equal x B.one
let div_exact x g = if is_one g then x else B.div x g

(* [add] and [mul] take gcds of their inputs instead of reducing the
   product-sized result (Knuth, TAOCP vol. 2, 4.5.1, as GMP's mpq does).
   The inputs are in lowest terms, so with g = gcd(b, d):
   a/b + c/d = t / (b/g * d) where t = a*(d/g) + c*(b/g), and the only
   factors t can share with the denominator are those of g. *)
let add x y =
  if B.is_zero x.n then y
  else if B.is_zero y.n then x
  else begin
    let g = B.gcd x.d y.d in
    if is_one g then { n = B.add (B.mul x.n y.d) (B.mul y.n x.d); d = B.mul x.d y.d }
    else begin
      let xd = B.div x.d g and yd = B.div y.d g in
      let t = B.add (B.mul x.n yd) (B.mul y.n xd) in
      (* t = 0 only when y = -x: then xd = 1 and g2 = g = y.d, giving 0/1 *)
      let g2 = B.gcd t g in
      { n = div_exact t g2; d = B.mul xd (div_exact y.d g2) }
    end
  end

let sub a b = add a (neg b)

(* a/b * c/d = (a/g1 * c/g2) / (b/g2 * d/g1) with g1 = gcd(a, d) and
   g2 = gcd(c, b); the result needs no further reduction. *)
let mul x y =
  if B.is_zero x.n || B.is_zero y.n then zero
  else begin
    let g1 = B.gcd x.n y.d and g2 = B.gcd y.n x.d in
    {
      n = B.mul (div_exact x.n g1) (div_exact y.n g2);
      d = B.mul (div_exact x.d g2) (div_exact y.d g1);
    }
  end

let inv x =
  if B.is_zero x.n then raise Division_by_zero;
  if B.sign x.n < 0 then { n = B.neg x.d; d = B.neg x.n } else { n = x.d; d = x.n }

let div a b = mul a (inv b)

let compare a b =
  let sa = B.sign a.n and sb = B.sign b.n in
  if sa <> sb || sa = 0 then Int.compare sa sb
  else if B.equal a.d b.d then B.compare a.n b.n
  else B.compare (B.mul a.n b.d) (B.mul b.n a.d)

let equal a b = B.equal a.n b.n && B.equal a.d b.d
let hash x = (B.hash x.n * 65599) lxor B.hash x.d
let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

let pow x k =
  if k >= 0 then { n = B.pow x.n k; d = B.pow x.d k }
  else inv { n = B.pow x.n (-k); d = B.pow x.d (-k) }

let floor x =
  let q, r = B.divmod x.n x.d in
  if B.sign r < 0 then B.sub q B.one else q

let ceil x =
  let q, r = B.divmod x.n x.d in
  if B.sign r > 0 then B.add q B.one else q

let is_integer x = B.equal x.d B.one

let to_string x =
  if is_integer x then B.to_string x.n else B.to_string x.n ^ "/" ^ B.to_string x.d

let of_string s =
  match String.index_opt s '/' with
  | Some i ->
    make (B.of_string (String.sub s 0 i)) (B.of_string (String.sub s (i + 1) (String.length s - i - 1)))
  | None ->
    (match String.index_opt s '.' with
     | None -> { n = B.of_string s; d = B.one }
     | Some i ->
       let int_part = String.sub s 0 i in
       let frac = String.sub s (i + 1) (String.length s - i - 1) in
       let negative = String.length int_part > 0 && int_part.[0] = '-' in
       let scale = B.pow (B.of_int 10) (String.length frac) in
       let ipart = if int_part = "" || int_part = "-" then B.zero else B.of_string int_part in
       let fpart = if frac = "" then B.zero else B.of_string frac in
       let mag = B.add (B.mul (B.abs ipart) scale) fpart in
       make (if negative then B.neg mag else mag) scale)

let of_float f =
  if not (Float.is_finite f) then invalid_arg "Rat.of_float: not finite";
  let mant, exp = Float.frexp f in
  (* mant * 2^53 is an exact integer below 2^53 in magnitude for any finite double *)
  let mi = B.of_int (Float.to_int (Float.ldexp mant 53)) in
  let e = exp - 53 in
  if e >= 0 then make (B.shift_left mi e) B.one else make mi (B.shift_left B.one (-e))

let to_float x = B.to_float x.n /. B.to_float x.d
let pp fmt x = Format.pp_print_string fmt (to_string x)
