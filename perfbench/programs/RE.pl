
% RE: a Prolog tokenizer and reader in the style of O'Keefe & Warren's
% public-domain read.pl: turn a list of character codes into tokens,
% then parse the tokens with an operator-precedence reader into a term
% representation — int(N), var(Name), const(Atom), struct(Functor,
% Args), and cons/nil list cells. Entry point: read_term(Chars, Term).

read_term(Chars, Term) :-
    tokenize(Chars, Tokens),
    parse(Tokens, Term).

%% --- The tokenizer ---------------------------------------------------

tokenize([], []).
tokenize([C|Cs], Tokens) :-
    space(C),
    tokenize(Cs, Tokens).
tokenize([C|Cs], [punct(P)|Tokens]) :-
    punct_char(C, P),
    tokenize(Cs, Tokens).
tokenize([C|Cs], [atom(Op)|Tokens]) :-
    symbol_char(C, Op),
    tokenize(Cs, Tokens).
tokenize([C|Cs], [atom(Name)|Tokens]) :-
    small_letter(C),
    take_alphas(Cs, Alphas, Rest),
    name(Name, [C|Alphas]),
    tokenize(Rest, Tokens).
tokenize([C|Cs], [variable(Name)|Tokens]) :-
    capital_letter(C),
    take_alphas(Cs, Alphas, Rest),
    name(Name, [C|Alphas]),
    tokenize(Rest, Tokens).
tokenize([C|Cs], [integer(N)|Tokens]) :-
    digit(C),
    take_digits(Cs, Digits, Rest),
    code_number([C|Digits], 0, N),
    tokenize(Rest, Tokens).

space(32).
space(10).
space(9).

punct_char(40, '(').
punct_char(41, ')').
punct_char(44, ',').
punct_char(91, '[').
punct_char(93, ']').
punct_char(124, '|').

symbol_char(61, =).
symbol_char(43, +).
symbol_char(45, -).
symbol_char(42, *).
symbol_char(47, /).
symbol_char(60, <).
symbol_char(62, >).

small_letter(C) :- C >= 97, C =< 122.
capital_letter(C) :- C >= 65, C =< 90.
digit(C) :- C >= 48, C =< 57.

alpha(C) :- small_letter(C).
alpha(C) :- capital_letter(C).
alpha(C) :- digit(C).
alpha(95).

take_alphas([C|Cs], [C|As], Rest) :-
    alpha(C),
    take_alphas(Cs, As, Rest).
take_alphas(Cs, [], Cs).

take_digits([C|Cs], [C|Ds], Rest) :-
    digit(C),
    take_digits(Cs, Ds, Rest).
take_digits(Cs, [], Cs).

code_number([], N, N).
code_number([D|Ds], SoFar, N) :-
    Next is SoFar * 10 + D - 48,
    code_number(Ds, Next, N).

%% --- The reader ------------------------------------------------------

parse(Tokens, Term) :-
    parse_term(Tokens, 1200, Term, []).

parse_term(Tokens, MaxPrec, Term, Rest) :-
    parse_primary(Tokens, Left, Rest1),
    parse_infix(Left, Rest1, MaxPrec, Term, Rest).

parse_primary([integer(N)|Tokens], int(N), Tokens).
parse_primary([variable(V)|Tokens], var(V), Tokens).
parse_primary([atom(A), punct('(')|Tokens], struct(A, Args), Rest) :-
    parse_args(Tokens, Args, Rest).
parse_primary([atom(A)|Tokens], const(A), Tokens).
parse_primary([punct('(')|Tokens], Term, Rest) :-
    parse_term(Tokens, 1200, Term, Rest1),
    expect(')', Rest1, Rest).
parse_primary([punct('[')|Tokens], List, Rest) :-
    parse_elements(Tokens, List, Rest).

parse_args(Tokens, [Arg|Args], Rest) :-
    parse_term(Tokens, 999, Arg, Rest1),
    parse_more_args(Rest1, Args, Rest).

parse_more_args([punct(',')|Tokens], [Arg|Args], Rest) :-
    parse_term(Tokens, 999, Arg, Rest1),
    parse_more_args(Rest1, Args, Rest).
parse_more_args([punct(')')|Tokens], [], Tokens).

parse_elements([punct(']')|Tokens], nil, Tokens).
parse_elements(Tokens, cons(Head, Tail), Rest) :-
    parse_term(Tokens, 999, Head, Rest1),
    parse_tail(Rest1, Tail, Rest).

parse_tail([punct(',')|Tokens], cons(Head, Tail), Rest) :-
    parse_term(Tokens, 999, Head, Rest1),
    parse_tail(Rest1, Tail, Rest).
parse_tail([punct(']')|Tokens], nil, Tokens).
parse_tail([punct('|')|Tokens], Tail, Rest) :-
    parse_term(Tokens, 999, Tail, Rest1),
    expect(']', Rest1, Rest).

% Left-associative infix loop driven by the operator table.
parse_infix(Left, [atom(Op)|Tokens], MaxPrec, Term, Rest) :-
    oper(Op, Prec, ArgPrec),
    Prec =< MaxPrec,
    parse_term(Tokens, ArgPrec, Right, Rest1),
    parse_infix(struct(Op, [Left, Right]), Rest1, MaxPrec, Term, Rest).
parse_infix(Term, Tokens, _, Term, Tokens).

oper(=, 700, 699).
oper(<, 700, 699).
oper(>, 700, 699).
oper(+, 500, 499).
oper(-, 500, 499).
oper(*, 400, 399).
oper(/, 400, 399).

expect(P, [punct(P)|Tokens], Tokens).

%% --- Driver ----------------------------------------------------------

sample("append([1, 2|X], Tail) = f(g(Y), h)").

test_read(Term) :-
    sample(Chars),
    read_term(Chars, Term).
