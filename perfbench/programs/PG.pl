
% PG: W. Older's mathematical puzzle, reconstructed as the classic
% generate-and-test program: pick sets of distinct numbers from a
% candidate pool so that their sums and products satisfy the puzzle's
% constraints, and return the solved configuration. Entry point: pg(S).

pg(Solution) :-
    puzzle(SumTarget, ProductTarget, Count),
    candidates(Pool),
    choose(Count, Pool, Picked),
    all_different(Picked),
    sum_list(Picked, Sum),
    Sum =:= SumTarget,
    product_list(Picked, Product),
    Product =< ProductTarget,
    check_pairs(Picked),
    Solution = solution(Picked, Sum, Product).

% The instance: four distinct numbers from 1..9 summing to 24.
puzzle(24, 3000, 4).

candidates([1, 2, 3, 4, 5, 6, 7, 8, 9]).

% choose(N, Pool, Picked): pick N elements (order-sensitive).
choose(0, _, []).
choose(N, Pool, [X|Xs]) :-
    N > 0,
    select_from(X, Pool, Rest),
    N1 is N - 1,
    choose(N1, Rest, Xs).

select_from(X, [X|Xs], Xs).
select_from(X, [Y|Ys], [Y|Zs]) :-
    select_from(X, Ys, Zs).

all_different([]).
all_different([X|Xs]) :-
    outside(X, Xs),
    all_different(Xs).

outside(_, []).
outside(X, [Y|Ys]) :-
    X =\= Y,
    outside(X, Ys).

sum_list([], 0).
sum_list([X|Xs], Sum) :-
    sum_list(Xs, Rest),
    Sum is Rest + X.

product_list([], 1).
product_list([X|Xs], Product) :-
    product_list(Xs, Rest),
    Product is Rest * X.

% Every adjacent pair must differ by at least two: the puzzle's
% "no neighbours" condition.
check_pairs([]).
check_pairs([_]).
check_pairs([X, Y|Rest]) :-
    gap(X, Y, Gap),
    Gap >= 2,
    check_pairs([Y|Rest]).

% gap(X, Y, |X-Y|) without abs/1.
gap(X, Y, Gap) :-
    X >= Y,
    Gap is X - Y.
gap(X, Y, Gap) :-
    X < Y,
    Gap is Y - X.
