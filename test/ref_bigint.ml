(* Reference bignum division and gcd: the original bit-serial long divider
   and Stein's binary gcd, over their own little-endian base-2^30 limb
   arrays (no trailing zero limb; zero is the empty array). They are slow
   and obviously correct, and the differential tests compare Bigint's
   Algorithm D and in-place gcd against them. Conversions go through
   decimal strings and Horner's rule so that the oracle shares no limb
   code with the library. *)

let base_bits = 30
let base = 1 lsl base_bits
let limb_mask = base - 1

let trim mag =
  let n = ref (Array.length mag) in
  while !n > 0 && mag.(!n - 1) = 0 do
    decr n
  done;
  Array.sub mag 0 !n

let cmp a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then compare la lb
  else begin
    let rec go i = if i < 0 then 0 else if a.(i) <> b.(i) then compare a.(i) b.(i) else go (i - 1) in
    go (la - 1)
  end

let add a b =
  let la = Array.length a and lb = Array.length b in
  let r = Array.make (1 + max la lb) 0 in
  let carry = ref 0 in
  for i = 0 to Array.length r - 1 do
    let s = (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry in
    r.(i) <- s land limb_mask;
    carry := s lsr base_bits
  done;
  trim r

(* a - b, for a >= b *)
let sub a b =
  let lb = Array.length b in
  let r = Array.copy a in
  let borrow = ref 0 in
  for i = 0 to Array.length a - 1 do
    let s = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    r.(i) <- s land limb_mask;
    borrow := if s < 0 then 1 else 0
  done;
  assert (!borrow = 0);
  trim r

let double a = add a a

let half a =
  let n = Array.length a in
  let r = Array.make n 0 in
  let carry = ref 0 in
  for i = n - 1 downto 0 do
    let v = a.(i) lor (!carry lsl base_bits) in
    r.(i) <- v lsr 1;
    carry := v land 1
  done;
  trim r

let is_zero a = Array.length a = 0
let is_even a = is_zero a || a.(0) land 1 = 0

let num_bits a =
  let n = Array.length a in
  if n = 0 then 0
  else begin
    let rec width w v = if v = 0 then w else width (w + 1) (v lsr 1) in
    ((n - 1) * base_bits) + width 0 a.(n - 1)
  end

let nth_bit a i =
  let limb = i / base_bits in
  if limb >= Array.length a then 0 else (a.(limb) lsr (i mod base_bits)) land 1

(* Bit-serial long division: r := 2r + bit, subtract b when it fits.
   Returns (q, r) with a = q*b + r and r < b. *)
let divmod a b =
  if is_zero b then raise Division_by_zero;
  let bits = num_bits a in
  let q = Array.make (Array.length a) 0 in
  let r = ref [||] in
  for i = bits - 1 downto 0 do
    let next = double !r in
    let next = if nth_bit a i = 1 then add next [| 1 |] else next in
    if cmp next b >= 0 then begin
      r := sub next b;
      q.(i / base_bits) <- q.(i / base_bits) lor (1 lsl (i mod base_bits))
    end
    else r := next
  done;
  (trim q, !r)

(* Stein's binary gcd: halving and subtraction only. *)
let gcd a b =
  if is_zero a then b
  else if is_zero b then a
  else begin
    let shift = ref 0 and a = ref a and b = ref b in
    while is_even !a && is_even !b do
      a := half !a;
      b := half !b;
      incr shift
    done;
    while is_even !a do
      a := half !a
    done;
    while not (is_zero !b) do
      while is_even !b do
        b := half !b
      done;
      if cmp !a !b > 0 then begin
        let t = !a in
        a := !b;
        b := t
      end;
      b := sub !b !a
    done;
    let g = ref !a in
    for _ = 1 to !shift do
      g := double !g
    done;
    !g
  end

(* ---- conversions ---- *)

(* Magnitude of a Bigint, parsed from its decimal string. *)
let of_bigint x =
  let s = Bigint.to_string (Bigint.abs x) in
  let mag = ref [||] in
  String.iter
    (fun c ->
      let digit = Char.code c - Char.code '0' in
      let r = Array.make (Array.length !mag + 1) 0 in
      let carry = ref digit in
      Array.iteri
        (fun i l ->
          let v = (l * 10) + !carry in
          r.(i) <- v land limb_mask;
          carry := v lsr base_bits)
        !mag;
      r.(Array.length !mag) <- !carry;
      mag := trim r)
    s;
  !mag

(* Bigint with the given sign (-1 or 1) and limbs, by Horner's rule. *)
let to_bigint sign mag =
  let m =
    Array.fold_right
      (fun l acc -> Bigint.add (Bigint.shift_left acc base_bits) (Bigint.of_int l))
      mag Bigint.zero
  in
  if sign < 0 then Bigint.neg m else m

(* Truncated signed division, as Bigint.divmod specifies it. *)
let divmod_signed a b =
  let q, r = divmod (of_bigint a) (of_bigint b) in
  (to_bigint (Bigint.sign a * Bigint.sign b) q, to_bigint (Bigint.sign a) r)

let gcd_signed a b = to_bigint 1 (gcd (of_bigint a) (of_bigint b))
