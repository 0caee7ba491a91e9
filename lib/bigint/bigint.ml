(* Sign-magnitude bignums over base-2^30 limbs (little-endian int arrays,
   no trailing zero limb; zero is the empty array with sign 0). Limbs fit
   in 30 bits so a limb product fits in OCaml's 63-bit native int. *)

let base_bits = 30
let base = 1 lsl base_bits
let limb_mask = base - 1

type t = { sign : int; mag : int array }

let zero = { sign = 0; mag = [||] }

let check_invariant x =
  let n = Array.length x.mag in
  (if x.sign = 0 then n = 0 else n > 0 && x.mag.(n - 1) <> 0)
  && Array.for_all (fun l -> 0 <= l && l < base) x.mag

(* Length of limbs [0, n) of [mag] without their zero top limbs. *)
let rec significant mag n = if n > 0 && mag.(n - 1) = 0 then significant mag (n - 1) else n

let normalize sign mag =
  let n = significant mag (Array.length mag) in
  if n = 0 then zero
  else if n = Array.length mag then { sign; mag }
  else { sign; mag = Array.sub mag 0 n }

(* Magnitude of a strictly positive native int. *)
let mag_of_pos m =
  let rec count n m = if m = 0 then n else count (n + 1) (m lsr base_bits) in
  Array.init (count 0 m) (fun i -> (m lsr (i * base_bits)) land limb_mask)

let of_int n =
  if n = 0 then zero
  else if n > 0 then normalize 1 (mag_of_pos n)
  else if n > min_int then normalize (-1) (mag_of_pos (-n))
  else begin
    (* |min_int| = max_int + 1 is not a representable positive int. *)
    let mag = mag_of_pos max_int in
    let carry = ref 1 in
    let mag = Array.append mag [| 0 |] in
    Array.iteri
      (fun i l ->
        let s = l + !carry in
        mag.(i) <- s land limb_mask;
        carry := s lsr base_bits)
      mag;
    normalize (-1) mag
  end

let one = of_int 1
let minus_one = of_int (-1)
let is_zero x = x.sign = 0
let sign x = x.sign
let neg x = if x.sign = 0 then x else { x with sign = -x.sign }
let abs x = if x.sign < 0 then neg x else x

(* Compares the magnitudes held in limbs [0, nu) of u and [0, nv) of v. *)
let cmp_prefix u nu v nv =
  if nu <> nv then compare nu nv
  else begin
    let rec go i = if i < 0 then 0 else if u.(i) <> v.(i) then compare u.(i) v.(i) else go (i - 1) in
    go (nu - 1)
  end

(* Magnitude comparison: |a| vs |b|. *)
let cmp_mag a b = cmp_prefix a (Array.length a) b (Array.length b)

let compare a b =
  if a.sign <> b.sign then compare a.sign b.sign
  else if a.sign >= 0 then cmp_mag a.mag b.mag
  else cmp_mag b.mag a.mag

let equal a b = compare a b = 0

let hash x =
  let h = ref (x.sign + 0x9e3779b9) in
  Array.iter (fun l -> h := (!h * 31) lxor l) x.mag;
  !h land max_int

(* |a| + |b| *)
let add_mag a b =
  let la = Array.length a and lb = Array.length b in
  let lr = 1 + max la lb in
  let r = Array.make lr 0 in
  let carry = ref 0 in
  for i = 0 to lr - 1 do
    let s = (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry in
    r.(i) <- s land limb_mask;
    carry := s lsr base_bits
  done;
  assert (!carry = 0);
  r

(* u[0, nu) -= v[0, nv) in place, for u >= v; returns the new length. *)
let sub_in_place u nu v nv =
  let borrow = ref 0 in
  for i = 0 to nu - 1 do
    let s = u.(i) - (if i < nv then v.(i) else 0) - !borrow in
    u.(i) <- s land limb_mask;
    borrow := if s < 0 then 1 else 0
  done;
  significant u nu

(* |a| - |b|, requires |a| >= |b| *)
let sub_mag a b =
  let r = Array.copy a in
  ignore (sub_in_place r (Array.length a) b (Array.length b));
  r

let add a b =
  if a.sign = 0 then b
  else if b.sign = 0 then a
  else if a.sign = b.sign then normalize a.sign (add_mag a.mag b.mag)
  else begin
    match cmp_mag a.mag b.mag with
    | 0 -> zero
    | c when c > 0 -> normalize a.sign (sub_mag a.mag b.mag)
    | _ -> normalize b.sign (sub_mag b.mag a.mag)
  end

let sub a b = add a (neg b)

let mul a b =
  if a.sign = 0 || b.sign = 0 then zero
  else begin
    let la = Array.length a.mag and lb = Array.length b.mag in
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      let ai = a.mag.(i) in
      for j = 0 to lb - 1 do
        let p = (ai * b.mag.(j)) + r.(i + j) + !carry in
        r.(i + j) <- p land limb_mask;
        carry := p lsr base_bits
      done;
      r.(i + lb) <- r.(i + lb) + !carry
    done;
    normalize (a.sign * b.sign) r
  end

let shift_left x k =
  if x.sign = 0 || k = 0 then x
  else begin
    let limb_shift = k / base_bits and bit_shift = k mod base_bits in
    let la = Array.length x.mag in
    let r = Array.make (la + limb_shift + 1) 0 in
    for i = 0 to la - 1 do
      let v = x.mag.(i) lsl bit_shift in
      r.(i + limb_shift) <- r.(i + limb_shift) lor (v land limb_mask);
      r.(i + limb_shift + 1) <- v lsr base_bits
    done;
    normalize x.sign r
  end

(* Fast path: magnitude divided by a single limb. *)
let divmod_limb mag d =
  let n = Array.length mag in
  let q = Array.make n 0 in
  let r = ref 0 in
  for i = n - 1 downto 0 do
    let cur = (!r lsl base_bits) lor mag.(i) in
    q.(i) <- cur / d;
    r := cur mod d
  done;
  (q, !r)

(* Leading zero bits of a nonzero limb, within its 30 bits. *)
let limb_clz l =
  let rec go k = if l lsl k land (base lsr 1) <> 0 then k else go (k + 1) in
  go 0

(* [mag] shifted left by [s < base_bits] bits into a fresh array of [len]
   limbs; the carry out of the top limb lands just above it, if [len]
   leaves room. *)
let shifted_left_limbs mag s len =
  let n = Array.length mag in
  let r = Array.make len 0 in
  let carry = ref 0 in
  for i = 0 to n - 1 do
    let v = (mag.(i) lsl s) lor !carry in
    r.(i) <- v land limb_mask;
    carry := v lsr base_bits
  done;
  if n < len then r.(n) <- !carry;
  r

(* Knuth's Algorithm D (TAOCP vol. 2, 4.3.1) in base 2^30, for |a| >= |b|
   with b at least two limbs: returns (q, r) with |a| = q*|b| + r. Every
   intermediate fits a 63-bit int: a two-limb numerator is below 2^60 and
   q̂ starts at most 2^30 + 1, so q̂ times a limb is below 2^61. *)
let divmod_mag a b =
  let n = Array.length b and m = Array.length a - Array.length b in
  (* Normalise so the divisor's top limb has its high bit set; this keeps
     q̂ at most two above the true quotient digit. *)
  let s = limb_clz b.(n - 1) in
  let v = shifted_left_limbs b s n in
  let u = shifted_left_limbs a s (m + n + 1) in
  let q = Array.make (m + 1) 0 in
  let vtop = v.(n - 1) and vnext = v.(n - 2) in
  for j = m downto 0 do
    let num = (u.(j + n) lsl base_bits) lor u.(j + n - 1) in
    let qhat = ref (num / vtop) and rhat = ref (num mod vtop) in
    while
      !rhat < base
      && (!qhat >= base || !qhat * vnext > (!rhat lsl base_bits) lor u.(j + n - 2))
    do
      decr qhat;
      rhat := !rhat + vtop
    done;
    (* u[j .. j+n] -= q̂ * v *)
    let borrow = ref 0 in
    for i = 0 to n - 1 do
      let p = !qhat * v.(i) in
      let t = u.(i + j) - !borrow - (p land limb_mask) in
      u.(i + j) <- t land limb_mask;
      borrow := (p lsr base_bits) - (t asr base_bits)
    done;
    let t = u.(j + n) - !borrow in
    if t >= 0 then begin
      u.(j + n) <- t;
      q.(j) <- !qhat
    end
    else begin
      (* q̂ was one too large: add v back (rare, probability about 2/base). *)
      let carry = ref 0 in
      for i = 0 to n - 1 do
        let sum = u.(i + j) + v.(i) + !carry in
        u.(i + j) <- sum land limb_mask;
        carry := sum lsr base_bits
      done;
      u.(j + n) <- (t + !carry) land limb_mask;
      q.(j) <- !qhat - 1
    end
  done;
  (* Unnormalise the remainder, the low n limbs of u. *)
  let r = Array.make n 0 in
  for i = 0 to n - 1 do
    let hi = if i + 1 < n then (u.(i + 1) lsl (base_bits - s)) land limb_mask else 0 in
    r.(i) <- (u.(i) lsr s) lor hi
  done;
  (q, r)

let divmod a b =
  if b.sign = 0 then raise Division_by_zero
  else if a.sign = 0 then (zero, zero)
  else if cmp_mag a.mag b.mag < 0 then (zero, a)
  else begin
    let qmag, rmag =
      if Array.length b.mag = 1 then begin
        let q, r = divmod_limb a.mag b.mag.(0) in
        (q, if r = 0 then [||] else [| r |])
      end
      else divmod_mag a.mag b.mag
    in
    let q = normalize (a.sign * b.sign) qmag in
    let r = normalize a.sign rmag in
    (q, r)
  end

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

(* ---- gcd over scratch limb arrays: a magnitude is its first [n] limbs ---- *)

let rec gcd_int a b = if b = 0 then a else gcd_int b (a mod b)

(* Limbs [0, n) mod a single limb, without allocating. *)
let rem_limb mag n d =
  let r = ref 0 in
  for i = n - 1 downto 0 do
    r := ((!r lsl base_bits) lor mag.(i)) mod d
  done;
  !r

let trailing_zeros mag =
  let i = ref 0 in
  while mag.(!i) = 0 do
    incr i
  done;
  let l = mag.(!i) in
  let b = ref 0 in
  while (l lsr !b) land 1 = 0 do
    incr b
  done;
  (!i * base_bits) + !b

(* Shift limbs [0, n) right by [k] bits in place; returns the new length. *)
let shift_right_in_place mag n k =
  let ls = k / base_bits and bs = k mod base_bits in
  let m = n - ls in
  for i = 0 to m - 1 do
    let hi = if i + ls + 1 < n then (mag.(i + ls + 1) lsl (base_bits - bs)) land limb_mask else 0 in
    mag.(i) <- (mag.(i + ls) lsr bs) lor hi
  done;
  significant mag m

(* A magnitude of at most two limbs (below 2^60) as a native int. *)
let to_small mag n = if n = 1 then mag.(0) else mag.(0) lor (mag.(1) lsl base_bits)

let of_pos p = { sign = 1; mag = mag_of_pos p }

(* gcd of limbs [0, n) and the single limb d: one remainder pass, then
   native Euclid. *)
let gcd_limb mag n d = of_pos (gcd_int d (rem_limb mag n d))

(* Binary gcd of two odd magnitudes u[0, nu) and v[0, nv), destroying both:
   subtract the smaller from the larger in place and strip the difference's
   trailing zeros, until one operand is a single limb or both fit in two,
   then finish with native Euclid. *)
let rec gcd_odd u nu v nv =
  if nv = 1 then gcd_limb u nu v.(0)
  else if nu = 1 then gcd_limb v nv u.(0)
  else if nu <= 2 && nv <= 2 then of_pos (gcd_int (to_small u nu) (to_small v nv))
  else begin
    let c = cmp_prefix u nu v nv in
    if c = 0 then { sign = 1; mag = Array.sub u 0 nu }
    else if c > 0 then begin
      let nu = sub_in_place u nu v nv in
      gcd_odd u (shift_right_in_place u nu (trailing_zeros u)) v nv
    end
    else begin
      let nv = sub_in_place v nv u nu in
      gcd_odd u nu v (shift_right_in_place v nv (trailing_zeros v))
    end
  end

(* Allocates only the two scratch copies and the result. *)
let gcd a b =
  let la = Array.length a.mag and lb = Array.length b.mag in
  if a.sign = 0 then abs b
  else if b.sign = 0 then abs a
  else if lb = 1 then gcd_limb a.mag la b.mag.(0)
  else if la = 1 then gcd_limb b.mag lb a.mag.(0)
  else begin
    let u = Array.copy a.mag and v = Array.copy b.mag in
    let tu = trailing_zeros u and tv = trailing_zeros v in
    let nu = shift_right_in_place u la tu and nv = shift_right_in_place v lb tv in
    shift_left (gcd_odd u nu v nv) (min tu tv)
  end

let pow x n =
  if n < 0 then invalid_arg "Bigint.pow: negative exponent";
  let rec go acc base n =
    if n = 0 then acc
    else if n land 1 = 1 then go (mul acc base) (mul base base) (n lsr 1)
    else go acc (mul base base) (n lsr 1)
  in
  go one x n

let to_int x =
  (* Accumulate on the negative side so min_int round-trips. *)
  let rec go acc i =
    if i < 0 then Some acc
    else begin
      let shifted = acc * base in
      if shifted / base <> acc then None
      else begin
        let v = shifted - x.mag.(i) in
        if v > shifted then None else go v (i - 1)
      end
    end
  in
  match go 0 (Array.length x.mag - 1) with
  | None -> None
  | Some negv -> if x.sign >= 0 then (if negv = min_int then None else Some (-negv)) else Some negv

let to_float x =
  let f = Array.fold_right (fun limb acc -> (acc *. 1073741824.0) +. float_of_int limb) x.mag 0.0 in
  if x.sign < 0 then -.f else f

let chunk_base = 1_000_000_000 (* < 2^30, so it is a valid single limb *)
let pow10 = [| 1; 10; 100; 1_000; 10_000; 100_000; 1_000_000; 10_000_000; 100_000_000; chunk_base |]

let of_string s =
  let len = String.length s in
  if len = 0 then invalid_arg "Bigint.of_string: empty string";
  let negative = s.[0] = '-' in
  let start = if negative || s.[0] = '+' then 1 else 0 in
  if start >= len then invalid_arg "Bigint.of_string: no digits";
  let acc = ref zero in
  let chunk = ref 0 and chunk_len = ref 0 in
  let flush () =
    if !chunk_len > 0 then begin
      acc := add (mul !acc (of_int pow10.(!chunk_len))) (of_int !chunk);
      chunk := 0;
      chunk_len := 0
    end
  in
  for i = start to len - 1 do
    match s.[i] with
    | '0' .. '9' ->
      chunk := (!chunk * 10) + (Char.code s.[i] - Char.code '0');
      incr chunk_len;
      if !chunk_len = 9 then flush ()
    | c -> invalid_arg (Printf.sprintf "Bigint.of_string: bad character %C" c)
  done;
  flush ();
  if negative then neg !acc else !acc

let to_string x =
  if x.sign = 0 then "0"
  else begin
    let buf = Buffer.create 32 in
    let rec go mag =
      let q, r = divmod_limb mag chunk_base in
      let q = (normalize 1 q).mag in
      if Array.length q = 0 then Buffer.add_string buf (string_of_int r)
      else begin
        go q;
        Buffer.add_string buf (Printf.sprintf "%09d" r)
      end
    in
    go x.mag;
    (if x.sign < 0 then "-" else "") ^ Buffer.contents buf
  end

let pp fmt x = Format.pp_print_string fmt (to_string x)

let () = ignore check_invariant
