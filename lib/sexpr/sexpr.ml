type t =
  | Atom of string
  | String of string
  | Int of int
  | Rational of Rat.t
  | List of t list

exception Parse_error of { line : int; col : int; message : string }

type lexer = { src : string; mutable pos : int; mutable line : int; mutable col : int }

let error lx message = raise (Parse_error { line = lx.line; col = lx.col; message })
let at_end lx = lx.pos >= String.length lx.src
let peek lx = if at_end lx then '\000' else lx.src.[lx.pos]

let advance lx =
  if not (at_end lx) then begin
    if lx.src.[lx.pos] = '\n' then begin
      lx.line <- lx.line + 1;
      lx.col <- 1
    end
    else lx.col <- lx.col + 1;
    lx.pos <- lx.pos + 1
  end

let rec skip_trivia lx =
  match peek lx with
  | ' ' | '\t' | '\n' | '\r' ->
    advance lx;
    skip_trivia lx
  | ';' ->
    while (not (at_end lx)) && peek lx <> '\n' do
      advance lx
    done;
    skip_trivia lx
  | _ -> ()

let is_delim c =
  match c with ' ' | '\t' | '\n' | '\r' | '(' | ')' | '"' | ';' | '\000' -> true | _ -> false

let read_string lx =
  advance lx;
  let buf = Buffer.create 16 in
  let rec go () =
    if at_end lx then error lx "unterminated string literal"
    else begin
      match peek lx with
      | '"' -> advance lx
      | '\\' ->
        advance lx;
        (* the full repertoire the printer ([%S]) can emit, so every printed
           string reads back: n t r b backslash double-quote, decimal ddd *)
        (match peek lx with
         | 'n' ->
           Buffer.add_char buf '\n';
           advance lx
         | 't' ->
           Buffer.add_char buf '\t';
           advance lx
         | 'r' ->
           Buffer.add_char buf '\r';
           advance lx
         | 'b' ->
           Buffer.add_char buf '\b';
           advance lx
         | '\\' ->
           Buffer.add_char buf '\\';
           advance lx
         | '"' ->
           Buffer.add_char buf '"';
           advance lx
         | '0' .. '9' ->
           let digit () =
             if at_end lx then error lx "unterminated \\ddd escape"
             else
               match peek lx with
               | '0' .. '9' as d ->
                 advance lx;
                 Char.code d - Char.code '0'
               | c -> error lx (Printf.sprintf "bad digit %c in \\ddd escape" c)
           in
           let d1 = digit () in
           let d2 = digit () in
           let d3 = digit () in
           let code = (100 * d1) + (10 * d2) + d3 in
           if code > 255 then error lx (Printf.sprintf "escape \\%03d out of range" code);
           Buffer.add_char buf (Char.chr code)
         | c -> error lx (Printf.sprintf "bad escape \\%c" c));
        go ()
      | c ->
        Buffer.add_char buf c;
        advance lx;
        go ()
    end
  in
  go ();
  Buffer.contents buf

let is_digit c = c >= '0' && c <= '9'

(* A token is numeric when it looks like -?digits(/digits | .digits)?
   and nothing else; otherwise it is a symbol (so "-", "+", "1+" stay
   symbols, matching egglog's lexing of operator names). A token that is
   lexically numeric but has no value — an integer literal outside the
   native int range, or a zero denominator — is a positioned parse error,
   never an uncaught [Failure]/[Division_by_zero]. *)
let classify_atom lx tok =
  let len = String.length tok in
  let start = if len > 0 && (tok.[0] = '-' || tok.[0] = '+') then 1 else 0 in
  if start >= len || not (is_digit tok.[start]) then Atom tok
  else begin
    let rec digits i = if i < len && is_digit tok.[i] then digits (i + 1) else i in
    let i = digits start in
    if i = len then begin
      match int_of_string_opt tok with
      | Some n -> Int n
      | None -> error lx (Printf.sprintf "integer literal out of range: %s" tok)
    end
    else if tok.[i] = '/' && i + 1 < len && digits (i + 1) = len then begin
      try Rational (Rat.of_string tok)
      with Division_by_zero -> error lx (Printf.sprintf "zero denominator in %s" tok)
    end
    else if tok.[i] = '.' && i + 1 < len && digits (i + 1) = len then Rational (Rat.of_string tok)
    else Atom tok
  end

let read_atom lx =
  let start = lx.pos in
  while not (is_delim (peek lx)) do
    advance lx
  done;
  classify_atom lx (String.sub lx.src start (lx.pos - start))

(* Deep enough for any reasonable program, shallow enough that adversarial
   input (the daemon's wire frames) cannot blow the OCaml stack: the parser
   recurses a handful of frames per level. *)
let max_depth = 2000

let rec read_expr ~depth lx =
  skip_trivia lx;
  if at_end lx then error lx "unexpected end of input";
  match peek lx with
  | '\000' -> error lx "NUL byte in input"
  | '(' ->
    if depth >= max_depth then
      error lx (Printf.sprintf "nesting deeper than %d" max_depth);
    advance lx;
    let items = ref [] in
    let rec go () =
      skip_trivia lx;
      if at_end lx then error lx "unclosed parenthesis";
      match peek lx with
      | ')' -> advance lx
      | '\000' -> error lx "NUL byte in input"
      | _ ->
        items := read_expr ~depth:(depth + 1) lx :: !items;
        go ()
    in
    go ();
    List (List.rev !items)
  | ')' -> error lx "unexpected ')'"
  | '"' -> String (read_string lx)
  | _ -> read_atom lx

let read_expr lx = read_expr ~depth:0 lx

let parse_string src =
  let lx = { src; pos = 0; line = 1; col = 1 } in
  let items = ref [] in
  let rec go () =
    skip_trivia lx;
    if not (at_end lx) then begin
      items := read_expr lx :: !items;
      go ()
    end
  in
  go ();
  List.rev !items

let parse_one src =
  match parse_string src with
  | [ e ] -> e
  | es ->
    raise
      (Parse_error
         { line = 1; col = 1; message = Printf.sprintf "expected 1 expression, found %d" (List.length es) })

(* Human-facing layout: every list in a [Format] hov box, broken at the
   margin. Only extraction output goes through it. *)
let rec pp fmt e =
  match e with
  | Atom s -> Format.pp_print_string fmt s
  | String s -> Format.fprintf fmt "%S" s
  | Int i -> Format.pp_print_int fmt i
  | Rational r -> Rat.pp fmt r
  | List items ->
    Format.fprintf fmt "(@[<hov 1>%a@])"
      (Format.pp_print_list ~pp_sep:Format.pp_print_space pp)
      items

(* Machine formats (checkpoints, snapshots, journal records, the daemon's
   replies, error messages): one line, single spaces, the same tokens as
   [pp]. [String.escaped] is what [%S] prints, so no raw newline survives. *)
let rec to_buffer buf e =
  match e with
  | Atom s -> Buffer.add_string buf s
  | String s ->
    Buffer.add_char buf '"';
    Buffer.add_string buf (String.escaped s);
    Buffer.add_char buf '"'
  | Int i -> Buffer.add_string buf (Int.to_string i)
  | Rational r -> Buffer.add_string buf (Rat.to_string r)
  | List items ->
    Buffer.add_char buf '(';
    List.iteri
      (fun k x ->
        if k > 0 then Buffer.add_char buf ' ';
        to_buffer buf x)
      items;
    Buffer.add_char buf ')'

let to_string e =
  let buf = Buffer.create 256 in
  to_buffer buf e;
  Buffer.contents buf

let rec equal a b =
  match (a, b) with
  | Atom x, Atom y -> String.equal x y
  | String x, String y -> String.equal x y
  | Int x, Int y -> x = y
  | Rational x, Rational y -> Rat.equal x y
  | List xs, List ys -> (try List.for_all2 equal xs ys with Invalid_argument _ -> false)
  | (Atom _ | String _ | Int _ | Rational _ | List _), _ -> false
