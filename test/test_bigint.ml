(* Unit + property tests for the arbitrary-precision integers. *)

module B = Bigint

let bi = B.of_int
let check_b msg expected actual = Alcotest.(check string) msg expected (B.to_string actual)

let test_of_to_int () =
  List.iter
    (fun n ->
      Alcotest.(check (option int))
        (Printf.sprintf "roundtrip %d" n)
        (Some n)
        (B.to_int (bi n)))
    [ 0; 1; -1; 42; -42; 1 lsl 29; (1 lsl 30) - 1; 1 lsl 30; 1 lsl 31; max_int; min_int; min_int + 1 ]

let test_to_string () =
  check_b "zero" "0" B.zero;
  check_b "one" "1" B.one;
  check_b "neg" "-17" (bi (-17));
  check_b "big" "1152921504606846976" (B.mul (bi (1 lsl 30)) (bi (1 lsl 30)));
  check_b "max_int" (string_of_int max_int) (bi max_int);
  check_b "min_int" (string_of_int min_int) (bi min_int)

let test_of_string () =
  check_b "parse small" "12345" (B.of_string "12345");
  check_b "parse neg" "-987654321" (B.of_string "-987654321");
  check_b "parse 30 digits" "123456789012345678901234567890"
    (B.of_string "123456789012345678901234567890");
  Alcotest.check_raises "empty" (Invalid_argument "Bigint.of_string: empty string") (fun () ->
      ignore (B.of_string ""));
  (match B.of_string "12a" with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "expected Invalid_argument")

let test_arith_basics () =
  check_b "add carry" "1073741824" (B.add (bi ((1 lsl 30) - 1)) B.one);
  check_b "sub borrow" "1073741823" (B.sub (bi (1 lsl 30)) B.one);
  check_b "mul sign" "-6" (B.mul (bi 2) (bi (-3)));
  check_b "pow" "1024" (B.pow (bi 2) 10);
  check_b "pow big" "1267650600228229401496703205376" (B.pow (bi 2) 100);
  check_b "shift" "2147483648" (B.shift_left B.one 31)

let test_divmod () =
  let q, r = B.divmod (bi 17) (bi 5) in
  check_b "q" "3" q;
  check_b "r" "2" r;
  let q, r = B.divmod (bi (-17)) (bi 5) in
  check_b "q neg" "-3" q;
  check_b "r neg" "-2" r;
  let big = B.pow (bi 10) 40 in
  let q, r = B.divmod big (B.of_string "123456789123456789") in
  Alcotest.(check bool) "reconstruct" true
    (B.equal big (B.add (B.mul q (B.of_string "123456789123456789")) r));
  Alcotest.check_raises "div by zero" Division_by_zero (fun () -> ignore (B.divmod B.one B.zero))

let test_gcd () =
  check_b "gcd" "6" (B.gcd (bi 54) (bi 24));
  check_b "gcd neg" "6" (B.gcd (bi (-54)) (bi 24));
  check_b "gcd zero" "7" (B.gcd B.zero (bi 7));
  check_b "gcd big" "1" (B.gcd (B.pow (bi 2) 101) (B.pow (bi 3) 61))

(* Hand-picked Algorithm D inputs, as little-endian base-2^30 limbs. Each
   must agree with the bit-serial reference divider. *)
let of_limbs limbs = Ref_bigint.to_bigint 1 (Array.of_list limbs)

let check_against_ref msg a b =
  let q, r = B.divmod a b and q', r' = Ref_bigint.divmod_signed a b in
  check_b (msg ^ ": q") (B.to_string q') q;
  check_b (msg ^ ": r") (B.to_string r') r;
  Alcotest.(check bool) (msg ^ ": a = q*b + r") true (B.equal a (B.add (B.mul q b) r))

let test_algorithm_d () =
  let h = 1 lsl 29 and top = (1 lsl 30) - 1 in
  (* q̂ is one too large even after the two-limb test: the add-back step *)
  check_against_ref "add-back" (of_limbs [ 0; 0; h; h - 1 ]) (of_limbs [ 1; 0; h ]);
  (* the two-limb test lowers q̂ once *)
  check_against_ref "q-hat correction" (of_limbs [ 0; top; 1 ]) (of_limbs [ top; top ]);
  (* q̂ starts two too large (at 2^30): two corrections, one add-back
     could not fix it *)
  check_against_ref "two q-hat corrections" (of_limbs [ 833394453; 0; top ]) (of_limbs [ 493294869; top ]);
  (* top limb already has its high bit set: no normalising shift *)
  check_against_ref "no shift" (of_limbs [ 5; 7; 3 ]) (of_limbs [ 9; top ]);
  (* top limb 1: a 29-bit normalising shift *)
  check_against_ref "29-bit shift" (of_limbs [ 5; 7; 3 ]) (of_limbs [ 9; 1 ]);
  check_against_ref "negative operands" (B.neg (of_limbs [ 5; 7; 3; 11 ])) (of_limbs [ 9; 1 ]);
  check_against_ref "equal magnitudes" (of_limbs [ 3; top; h ]) (B.neg (of_limbs [ 3; top; h ]))

let test_compare () =
  Alcotest.(check bool) "lt" true (B.compare (bi (-5)) (bi 3) < 0);
  Alcotest.(check bool) "big vs small" true (B.compare (B.pow (bi 10) 30) (bi max_int) > 0);
  Alcotest.(check bool) "neg big" true (B.compare (B.neg (B.pow (bi 10) 30)) (bi min_int) < 0)

let test_to_float () =
  Alcotest.(check (float 1e-6)) "to_float small" 123456.0 (B.to_float (bi 123456));
  Alcotest.(check (float 1e9)) "to_float 2^62" (Float.ldexp 1.0 62) (B.to_float (bi min_int |> B.neg))

(* ---- properties ---- *)

let small_int = QCheck2.Gen.int_range (-1_000_000_000) 1_000_000_000
let any_int = QCheck2.Gen.oneof [ small_int; QCheck2.Gen.int ]

let prop_add_matches_int =
  QCheck2.Test.make ~name:"bigint add matches int on safe range" ~count:500
    QCheck2.Gen.(pair small_int small_int)
    (fun (a, b) -> B.to_int (B.add (bi a) (bi b)) = Some (a + b))

let prop_mul_matches_int =
  QCheck2.Test.make ~name:"bigint mul matches int on safe range" ~count:500
    QCheck2.Gen.(pair (int_range (-100000) 100000) (int_range (-100000) 100000))
    (fun (a, b) -> B.to_int (B.mul (bi a) (bi b)) = Some (a * b))

let prop_string_roundtrip =
  QCheck2.Test.make ~name:"bigint to_string/of_string roundtrip" ~count:500 any_int (fun a ->
      B.equal (bi a) (B.of_string (B.to_string (bi a))))

let prop_divmod_invariant =
  QCheck2.Test.make ~name:"bigint a = q*b + r, |r| < |b|" ~count:500
    QCheck2.Gen.(triple any_int any_int (int_range 1 12))
    (fun (a, b, k) ->
      let a = B.mul (bi a) (B.pow (bi 7) k) and b = bi b in
      if B.is_zero b then QCheck2.assume_fail ()
      else begin
        let q, r = B.divmod a b in
        B.equal a (B.add (B.mul q b) r)
        && B.compare (B.abs r) (B.abs b) < 0
        && (B.is_zero r || B.sign r = B.sign a)
      end)

let prop_gcd_divides =
  QCheck2.Test.make ~name:"bigint gcd divides both" ~count:300
    QCheck2.Gen.(pair any_int any_int)
    (fun (a, b) ->
      if a = 0 && b = 0 then true
      else begin
        let g = B.gcd (bi a) (bi b) in
        B.is_zero (B.rem (bi a) g) && B.is_zero (B.rem (bi b) g)
      end)

(* Multi-limb operands for the differential tests: 1-9 random limbs
   (biased towards 0, 2^29 and 2^30-1), a random sign, a power-of-two
   factor, and sometimes a large factor shared by both operands. *)
let limb_gen =
  QCheck2.Gen.(
    frequency
      [
        (1, pure 0);
        (1, pure (1 lsl 29));
        (1, pure ((1 lsl 30) - 1));
        (5, int_bound ((1 lsl 30) - 1));
      ])

let mag_gen =
  QCheck2.Gen.(
    let* n = int_range 1 9 in
    let* limbs = array_size (pure n) limb_gen in
    let* top = int_range 1 ((1 lsl 30) - 1) in
    limbs.(n - 1) <- top;
    pure (Ref_bigint.to_bigint 1 limbs))

let operand_gen =
  QCheck2.Gen.(
    let* m = mag_gen and* neg = bool and* shift = oneof [ pure 0; int_bound 70 ] in
    let x = B.shift_left m shift in
    pure (if neg then B.neg x else x))

let operand_pair_gen =
  QCheck2.Gen.(
    let* a = operand_gen and* b = operand_gen and* shared = option mag_gen in
    match shared with
    | None -> pure (a, b)
    | Some s -> pure (B.mul a s, B.mul b s))

let print_pair (a, b) = Printf.sprintf "(%s, %s)" (B.to_string a) (B.to_string b)

let prop_divmod_matches_ref =
  QCheck2.Test.make ~name:"bigint divmod matches bit-serial reference" ~count:1000
    ~print:print_pair operand_pair_gen (fun (a, b) ->
      let q, r = B.divmod a b and q', r' = Ref_bigint.divmod_signed a b in
      B.equal q q' && B.equal r r')

let prop_divmod_multiple_matches_ref =
  QCheck2.Test.make ~name:"bigint divmod of a product matches reference" ~count:300
    ~print:print_pair operand_pair_gen (fun (a, b) ->
      let p = B.add (B.mul a b) (B.of_int 1) in
      let q, r = B.divmod p b and q', r' = Ref_bigint.divmod_signed p b in
      B.equal q q' && B.equal r r')

let prop_gcd_matches_ref =
  QCheck2.Test.make ~name:"bigint gcd matches Stein reference" ~count:1000 ~print:print_pair
    operand_pair_gen (fun (a, b) -> B.equal (B.gcd a b) (Ref_bigint.gcd_signed a b))

let prop_mul_assoc =
  QCheck2.Test.make ~name:"bigint mul associative" ~count:300
    QCheck2.Gen.(triple any_int any_int any_int)
    (fun (a, b, c) ->
      B.equal (B.mul (bi a) (B.mul (bi b) (bi c))) (B.mul (B.mul (bi a) (bi b)) (bi c)))

let () =
  let props =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_add_matches_int;
        prop_mul_matches_int;
        prop_string_roundtrip;
        prop_divmod_invariant;
        prop_gcd_divides;
        prop_mul_assoc;
        prop_divmod_matches_ref;
        prop_divmod_multiple_matches_ref;
        prop_gcd_matches_ref;
      ]
  in
  Alcotest.run "bigint"
    [
      ( "unit",
        [
          Alcotest.test_case "of_int/to_int" `Quick test_of_to_int;
          Alcotest.test_case "to_string" `Quick test_to_string;
          Alcotest.test_case "of_string" `Quick test_of_string;
          Alcotest.test_case "arith" `Quick test_arith_basics;
          Alcotest.test_case "divmod" `Quick test_divmod;
          Alcotest.test_case "algorithm D" `Quick test_algorithm_d;
          Alcotest.test_case "gcd" `Quick test_gcd;
          Alcotest.test_case "compare" `Quick test_compare;
          Alcotest.test_case "to_float" `Quick test_to_float;
        ] );
      ("properties", props);
    ]
