
% PR: a compact reconstruction of PRESS, the Prolog equation solver of
% Sterling & Shapiro (The Art of Prolog, Chapter 23): solve an equation
% by factorization when it is a product equated to zero, otherwise by
% isolation — find the single occurrence of the unknown, pick the side
% containing it, and repeatedly apply inverse axioms until the unknown
% stands alone. Entry point: test_press(N, Solution).

test_press(N, Solution) :-
    equation(N, Equation, Unknown),
    solve_equation(Equation, Unknown, Solution).

equation(1, (x + 1) * (x - 1) = 0, x).
equation(2, cos(x) * (1 - 2 * sin(x)) = 0, x).
equation(3, 2 * x + 3 = 7, x).
equation(4, sin(2 * x) - 5 = 0, x).

% The factorization method, then the isolation method.
solve_equation(A * B = 0, X, Solution) :-
    factorize(A * B, X, Factors, []),
    remove_duplicates(Factors, Distinct),
    solve_factors(Distinct, X, Solution).
solve_equation(Equation, X, Solution) :-
    single_occurrence(X, Equation),
    position(X, Equation, [Side|Path]),
    maneuver_sides(Side, Equation, Equation1),
    isolate(Path, Equation1, Solution).

% factorize(Expression, X, Factors, Rest): difference-list accumulator
% of the factors containing the unknown.
factorize(A * B, X, Factors, Rest) :-
    factorize(A, X, Factors, Factors1),
    factorize(B, X, Factors1, Rest).
factorize(C, X, [C|Rest], Rest) :-
    subterm(X, C).
factorize(_, _, Rest, Rest).

solve_factors([Factor|_], X, Solution) :-
    solve_equation(Factor = 0, X, Solution).
solve_factors([_|Factors], X, Solution) :-
    solve_factors(Factors, X, Solution).

remove_duplicates([], []).
remove_duplicates([F|Fs], Rest) :-
    strict_member(F, Fs),
    remove_duplicates(Fs, Rest).
remove_duplicates([F|Fs], [F|Rest]) :-
    outside_list(F, Fs),
    remove_duplicates(Fs, Rest).

strict_member(X, [Y|_]) :- X == Y.
strict_member(X, [_|Ys]) :- strict_member(X, Ys).

outside_list(_, []).
outside_list(X, [Y|Ys]) :-
    X \== Y,
    outside_list(X, Ys).

% The isolation method's bookkeeping.
single_occurrence(X, Equation) :-
    occurrences(X, Equation, 1).

occurrences(X, X, 1).
occurrences(X, Term, N) :-
    X \== Term,
    decompose(Term, Args),
    count_list(X, Args, N).
occurrences(X, Term, 0) :-
    X \== Term,
    atomic_expression(Term).

count_list(_, [], 0).
count_list(X, [A|As], N) :-
    occurrences(X, A, N1),
    count_list(X, As, N2),
    N is N1 + N2.

atomic_expression(T) :- atom(T).
atomic_expression(T) :- number(T).

% position(Sub, Term, Path): the argument path leading to Sub.
position(Term, Term, []).
position(Sub, Term, [N|Path]) :-
    decompose(Term, Args),
    nth_member(N, Args, Arg),
    position(Sub, Arg, Path).

nth_member(1, [Arg|_], Arg).
nth_member(N, [_|Args], Arg) :-
    nth_member(N1, Args, Arg),
    N is N1 + 1.

subterm(Term, Term).
subterm(Sub, Term) :-
    decompose(Term, Args),
    subterm_list(Sub, Args).

subterm_list(Sub, [Arg|_]) :- subterm(Sub, Arg).
subterm_list(Sub, [_|Args]) :- subterm_list(Sub, Args).

decompose(A + B, [A, B]).
decompose(A - B, [A, B]).
decompose(A * B, [A, B]).
decompose(A / B, [A, B]).
decompose(A = B, [A, B]).
decompose(sin(A), [A]).
decompose(cos(A), [A]).

maneuver_sides(1, Lhs = Rhs, Lhs = Rhs).
maneuver_sides(2, Lhs = Rhs, Rhs = Lhs).

isolate([], Equation, Equation).
isolate([N|Path], Equation, Isolated) :-
    isolax(N, Equation, Equation1),
    isolate(Path, Equation1, Isolated).

% The isolation axioms: invert the outermost operator on the side
% holding the unknown.
isolax(1, Term1 + Term2 = Rhs, Term1 = Rhs - Term2).
isolax(2, Term1 + Term2 = Rhs, Term2 = Rhs - Term1).
isolax(1, Term1 - Term2 = Rhs, Term1 = Rhs + Term2).
isolax(2, Term1 - Term2 = Rhs, Term2 = Term1 - Rhs).
isolax(1, Term1 * Term2 = Rhs, Term1 = Rhs / Term2) :-
    nonzero(Term2).
isolax(2, Term1 * Term2 = Rhs, Term2 = Rhs / Term1) :-
    nonzero(Term1).
isolax(1, Term1 / Term2 = Rhs, Term1 = Rhs * Term2).
isolax(2, Term1 / Term2 = Rhs, Term2 = Term1 / Rhs).
isolax(1, sin(U) = Rhs, U = arcsin(Rhs)).
isolax(1, cos(U) = Rhs, U = arccos(Rhs)).

nonzero(C) :- C \== 0.
